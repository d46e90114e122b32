"""Mutation checks: small faults in the library that named tests must catch.

Each entry of `MUTANTS` is (file under src/graphspring, exact old text, new
text, tests that must fail).  For each one the script copies `src/` to a
temporary directory, applies the edit there (the old text must occur exactly
once), and runs the named tests with `PYTHONPATH` pointing at the copy.  A
mutant survives when those tests all pass.  The script prints one line per
mutant and exits 1 if any survives or no longer applies.  Run it from anywhere:

    python tests/mutants.py

A change to a VJP, the parser, the split rule or a setting's check adds its
mutants here.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # the one split rule resamples a dump that already hides signs
    ("cli.py", "if hidden.size or spec is None:", "if spec is None:",
     ["tests/test_cli.py::test_train_embed_and_eval_hide_the_same_signs"]),
    # a run writes its manifest before the settings step checks its settings
    ("cli.py", "    for key, (accepts, rule) in CLI_RANGES.items():\n",
     '    _write_manifest(Path(args.out or out), "", config, {}, {})\n'
     "    for key, (accepts, rule) in CLI_RANGES.items():\n",
     ["tests/test_cli.py::test_bad_setting_exits_1_naming_it_before_writing"]),
    # eval takes a seed twice, and aggregates a run with itself
    ("cli.py", "0 < len(set(_seed_list(v))) == len(_seed_list(v))", "bool(_seed_list(v))",
     ["tests/test_cli.py::test_bad_setting_exits_1_naming_it_before_writing"]),
    # a listed hidden edge's line may carry fields after its two ids
    ("cli.py", "a, b = (np.int64(tok) for tok in tokens)",
     "a, b = (np.int64(tok) for tok in tokens[:2])",
     ["tests/test_cli.py::test_hidden_edges_file_must_list_graph_edges"]),
    # bench takes no repetitions, or fewer
    ("cli.py", '    "reps": (lambda v: v >= 1, "be at least 1"),\n', "",
     ["tests/test_cli.py::test_bad_setting_exits_1_naming_it_before_writing"]),
    # eval scores hidden edges of one sign, which have no AUC
    ("cli.py", "if n_pos in (0, hidden.size):", "if hidden.size == 0:",
     ["tests/test_cli.py::test_bad_setting_exits_1_naming_it_before_writing"]),
    # train takes a model kind that has no parameters, and fails after its manifest
    ("training.py", "if self.model_kind not in MODEL_KINDS:", "if False:",
     ["tests/test_cli.py::test_bad_setting_exits_1_naming_it_before_writing"]),
    # a simulation takes a time step that is not a number
    ("simulate.py", "if not 0 < self.dt < np.inf:", "if self.dt <= 0:",
     ["tests/test_cli.py::test_bad_setting_exits_1_naming_it_before_writing"]),
    # a replay skips the hash comparison of its recorded inputs
    ("cli.py", "if got != want:", "if False:",
     ["tests/test_cli.py::test_replay_refuses_an_input_whose_hash_changed",
      "tests/test_cli.py::test_replay_of_a_run_that_overwrote_its_resumed_checkpoint_exits_1"]),
    # the positive spring's VJP counts the kink d = l_pos as stretched
    ("forces.py", "active = dist > p.l_pos", "active = dist >= p.l_pos",
     ["tests/test_forcefield.py::test_vjp_at_kinks_matches_the_one_sided_difference"]),
    # the force-field VJP drops the d-path term of the edge length
    ("forcefield.py", "    ddist -= up_fwd * c_fwd + up_rev * c_rev\n", "",
     ["tests/test_forcefield.py::test_vjp_matches_finite_differences",
      "tests/test_forcefield.py::test_vjp_property_central_differences"]),
    # the Euler update reads damping 0.05 as 0.049
    ("simulate.py", "V *= 1.0 - config.damping", "V *= 1.0 - 0.049",
     ["tests/test_acceptance.py::test_c05_two_body_oracle"]),
    # the Euler update damps the velocities after adding the force, not before
    ("simulate.py",
     "            V *= 1.0 - config.damping\n"
     "            force_field(ctx, model, X, seed=config.seed, step=state.t_step, out=V,\n"
     "                        gain=gain, on_lengths=on_lengths,\n"
     "                        lengths=lengths[j] if j < len(lengths) else None)\n",
     "            force_field(ctx, model, X, seed=config.seed, step=state.t_step, out=V,\n"
     "                        gain=gain, on_lengths=on_lengths,\n"
     "                        lengths=lengths[j] if j < len(lengths) else None)\n"
     "            V *= 1.0 - config.damping\n",
     ["tests/test_simulate.py::test_one_step_is_the_damped_euler_update_of_the_public_force_field",
      "tests/test_acceptance.py::test_c05_two_body_oracle"]),
    # the field scales each edge weight by the gain of its column, not its row
    ("forcefield.py", "c_fwd *= g[ctx.u]\n        c_rev *= g[ctx.v]",
     "c_fwd *= g[ctx.v]\n        c_rev *= g[ctx.u]",
     ["tests/test_forcefield.py::test_random_instances_match_brute_force"]),
    # the field's diagonal leaves out the gain
    ("forcefield.py", "        diag = -g * _rowsum(ctx, c_fwd, c_rev)",
     "        diag = -_rowsum(ctx, c_fwd, c_rev)",
     ["tests/test_forcefield.py::test_random_instances_match_brute_force"]),
    # the VJP's transposed product scales by the gain of each row, not column
    ("forcefield.py", "c_rev *= g_v\n    c_fwd *= g_u",
     "c_rev *= g_u\n    c_fwd *= g_v",
     ["tests/test_forcefield.py::test_vjp_matches_finite_differences",
      "tests/test_forcefield.py::test_vjp_property_central_differences"]),
    # the VJP's second product adds +(T - D_T) X instead of subtracting it
    ("forcefield.py", "    np.negative(t, out=t)\n", "",
     ["tests/test_forcefield.py::test_vjp_matches_finite_differences",
      "tests/test_forcefield.py::test_vjp_property_central_differences"]),
    # the MLP VJP counts the ReLU kink pre = 0 as active
    ("forces.py", "slope = (pre > 0) * p.w1[:, None]",
     "slope = (pre >= 0) * p.w1[:, None]",
     ["tests/test_forces.py::test_batch_vjp_matches_central_differences",
      "tests/test_forcefield.py::test_vjp_matches_finite_differences",
      "tests/test_forcefield.py::test_vjp_property_central_differences",
      "tests/test_forcefield.py::test_vjp_at_kinks_matches_the_one_sided_difference"]),
    # the MLP VJP forms d_hidden in slope's place before slope is read
    ("forces.py",
     "    d_x0 = p.w0[:, 0] @ slope\n"
     "    d_hidden = np.multiply(slope, upstream, out=slope)   # slope is read above\n",
     "    d_hidden = np.multiply(slope, upstream, out=slope)   # slope is read above\n"
     "    d_x0 = p.w0[:, 0] @ slope\n",
     ["tests/test_forces.py::test_batch_vjp_matches_central_differences",
      "tests/test_forcefield.py::test_vjp_matches_finite_differences",
      "tests/test_forcefield.py::test_vjp_property_central_differences"]),
    # the neutral spring's stiffness gradient lands in the wrong slot
    ("forces.py", "grad[4] = np.dot(upstream, dist - p.l_neu)",
     "grad[3] = np.dot(upstream, dist - p.l_neu)",
     ["tests/test_forces.py::test_batch_vjp_matches_central_differences"]),
    # a tie-broken edge pushes its u end with the reverse magnitude
    ("forcefield.py", "np.add.at(out, u, (g[u] * tie_fwd)[:, None] * units)",
     "np.add.at(out, u, (g[u] * tie_rev)[:, None] * units)",
     ["tests/test_forcefield.py::test_coincident_nodes_no_nan_and_deterministic",
      "tests/test_forcefield.py::test_tie_correction_matches_brute_force",
      "tests/test_forcefield.py::test_vjp_property_coincident_endpoints"]),
    # the VJP's diagonal sums the weights of the wrong direction
    ("forcefield.py",
     "diag = -g * _rowsum(ctx, c_fwd, c_rev)\n    c_rev *= g_v",
     "diag = -g * _rowsum(ctx, c_rev, c_fwd)\n    c_rev *= g_v",
     ["tests/test_forcefield.py::test_vjp_matches_finite_differences",
      "tests/test_forcefield.py::test_vjp_property_central_differences"]),
    # the VJP takes a cotangent of another shape, which the kernel reads past
    ("forcefield.py", "if w.shape != X.shape:", "if False:",
     ["tests/test_forcefield.py::test_vjp_refuses_a_cotangent_of_another_shape"]),
    # the operators take positions of another row count
    ("forcefield.py", "if X.ndim != 2 or X.shape[0] != ctx.n_nodes:", "if X.ndim != 2:",
     ["tests/test_forcefield.py::test_vjp_refuses_positions_of_another_row_count"]),
    # the operators take a gain of another length
    ("forcefield.py", "if gain is not None and np.shape(gain) != (ctx.n_nodes,):",
     "if False:",
     ["tests/test_forcefield.py::test_a_gain_of_another_length_is_refused"]),
    # the operators take an out the CSR kernel cannot write, and an edgeless
    # call returns it
    ("forcefield.py", "if out is not None and not (isinstance(out, np.ndarray)",
     "if False and not (isinstance(out, np.ndarray)",
     ["tests/test_forcefield.py::test_an_out_the_kernel_cannot_write_is_refused"]),
    # the operators add into an out that is X itself
    ("forcefield.py", "if out is not None and np.may_share_memory(out, X):", "if False:",
     ["tests/test_forcefield.py::test_force_field_refuses_an_out_that_aliases_X",
      "tests/test_forcefield.py::test_vjp_refuses_an_out_that_aliases_X_or_w"]),
    # the VJP adds into an out that is w itself
    ("forcefield.py", "if out is not None and np.may_share_memory(out, w):", "if False:",
     ["tests/test_forcefield.py::test_vjp_refuses_an_out_that_aliases_X_or_w"]),
    # the edge blocks stop one edge short, so the last edge has no geometry
    ("forcefield.py", "hi = min(lo + rows, m)", "hi = min(lo + rows, m - 1)",
     ["tests/test_forcefield.py::test_blocked_kernels_match_the_sparse_oracle_bitwise"]),
    # the semi-implicit adjoint of V1 takes twice the time step
    ("training.py", "_add_scaled(gV, gX, dt, buf)   # the adjoint of V1",
     "_add_scaled(gV, gX, 2 * dt, buf)   # the adjoint of V1",
     ["tests/test_training.py::test_semi_implicit_gradients_match_fd"]),
    # the forward pass keeps the lengths of one step fewer per segment, which
    # the replay then computes again
    ("training.py", "del seg.lengths[steps - 1:]", "del seg.lengths[steps - 2:]",
     ["tests/test_training.py::test_bench_tape_bytes_are_the_arrays_the_tape_keeps"]),
    # the tape keeps the lengths of one step more per segment than its replay reads
    ("training.py", "del seg.lengths[steps - 1:]", "del seg.lengths[steps:]",
     ["tests/test_training.py::test_bench_tape_bytes_are_the_arrays_the_tape_keeps"]),
    # the replay evaluates each step's force at the next kept step's lengths
    ("training.py", "lengths=seg.lengths)", "lengths=seg.lengths[1:])",
     ["tests/test_training.py::test_segmented_tape_is_bitwise_the_full_tape"]),
    # simulate evaluates step j's force at the lengths given for step j + 1
    ("simulate.py", "lengths=lengths[j] if j < len(lengths) else None)",
     "lengths=lengths[j + 1] if j + 1 < len(lengths) else None)",
     ["tests/test_simulate.py::test_simulate_given_the_lengths_it_handed_out_is_bitwise_simulate_without",
      "tests/test_training.py::test_segmented_tape_is_bitwise_the_full_tape"]),
    # the replay starts at the segment's step within the epoch, not at the
    # absolute step, and so draws other tie-break units
    ("training.py", "SimState(seg.X, seg.V, t0 + seg.start)", "SimState(seg.X, seg.V, seg.start)",
     ["tests/test_training.py::test_segmented_tape_is_bitwise_the_full_tape"]),
    # the field recomputes the lengths it was given
    ("forcefield.py", "dist = _geometry(ctx, X)[0] if lengths is None else lengths",
     "dist = _geometry(ctx, X)[0]",
     ["tests/test_forcefield.py::test_force_field_given_the_lengths_computes_no_geometry"]),
    # the field hands out no lengths for a step with tie-broken edges
    ("forcefield.py", "        on_lengths(dist)\n",
     "        on_lengths(None if tied.any() else dist)\n",
     ["tests/test_forcefield.py::test_vjp_given_the_lengths_is_bitwise_the_vjp_without",
      "tests/test_training.py::test_bench_tape_bytes_are_the_arrays_the_tape_keeps"]),
    # the replay advances a copy of the segment's V, which it drops anyway
    ("training.py", "seg.V, ctx, params,", "seg.V.copy(), ctx, params,",
     ["tests/test_training.py::test_a_replay_holds_its_positions_and_one_field_call"]),
    # the replay advances the V of the caller's start state
    ("training.py", "SimState(state0.X, state0.V.copy(), state0.t_step)",
     "SimState(state0.X, state0.V, state0.t_step)",
     ["tests/test_training.py::test_loss_and_grad_leaves_the_given_start_state_untouched",
      "tests/test_training.py::test_segmented_tape_is_bitwise_the_full_tape"]),
    # the sweep hands each VJP the lengths of another step of its segment
    ("training.py", "zip(positions, seg.lengths + [None])",
     "zip(positions, [None] + seg.lengths)",
     ["tests/test_training.py::test_segmented_tape_is_bitwise_the_full_tape"]),
    # the count keeps a replayed step's 2m + n CSR values, not its m lengths
    ("training.py", "(steps - 1) * n_edges", "(steps - 1) * (2 * n_edges + n_nodes)",
     ["tests/test_training.py::test_bench_tape_bytes_are_the_arrays_the_tape_keeps"]),
    # the operators take lengths of another shape
    ("forcefield.py", "if lengths is not None and np.shape(lengths) != (ctx.n_edges,):",
     "if False:",
     ["tests/test_forcefield.py::test_vjp_refuses_lengths_of_another_shape"]),
    # a replayed step, given its lengths, checks the state its run checked
    ("simulate.py", "finite = j < len(lengths) or np.isfinite(X1.sum() + V.sum())",
     "finite = np.isfinite(X1.sum() + V.sum())",
     ["tests/test_simulate.py::test_a_step_given_its_lengths_is_not_checked_and_the_next_one_is"]),
    # the step after the given lengths, which computes its own, goes unchecked
    ("simulate.py", "finite = j < len(lengths) or", "finite = j <= len(lengths) or",
     ["tests/test_simulate.py::test_a_step_given_its_lengths_is_not_checked_and_the_next_one_is"]),
    # a step whose state sums to a non-finite number diverges, though every
    # entry is finite
    ("simulate.py",
     "if not finite and not (np.isfinite(X1).all() and np.isfinite(V).all()):",
     "if not finite:",
     ["tests/test_simulate.py::test_a_finite_state_whose_sum_overflows_does_not_diverge"]),
    # the tape's count leaves out the positions the sweep replays
    ("training.py", "peak = max(peak, held + n_nodes * k * (steps - 1))",
     "peak = max(peak, held)",
     ["tests/test_training.py::test_bench_tape_bytes_are_the_arrays_the_tape_keeps"]),
    # the count holds every segment alive while the sweep replays the longest,
    # as when every segment had one length
    ("training.py",
     "        peak = max(peak, held + n_nodes * k * (steps - 1))\n    return int(peak)",
     "        peak = max(peak, n_nodes * k * steps)\n"
     "    return int(held + peak - n_nodes * k)",
     ["tests/test_training.py::test_bench_tape_bytes_are_the_arrays_the_tape_keeps"]),
    # the count keeps the velocities of a one-step segment, which replays nothing
    ("training.py", "n_nodes * k * (1 + (steps > 1))", "n_nodes * k * 2",
     ["tests/test_training.py::test_bench_tape_bytes_are_the_arrays_the_tape_keeps"]),
    # the count leaves out the lengths of a segment's last replayed step, as
    # when the explicit ordering replayed its last position without a force
    ("training.py", "(steps - 1) * n_edges", "max(0, steps - 2) * n_edges",
     ["tests/test_training.py::test_bench_tape_bytes_are_the_arrays_the_tape_keeps"]),
    # the rule never picks a one-step segment where a longer one fits
    ("training.py", "first[t] = np.argmin(peak)",
     "first[t] = np.argmin(peak[1:]) + 1 if rest > 1 else 0",
     ["tests/test_training.py::test_the_schedule_has_the_least_count_of_every_schedule",
      "tests/test_training.py::test_the_schedules_of_bench_and_the_dense_graph"]),
    # the rule takes the longer segment on a tie
    ("training.py", "first[t] = np.argmin(peak)",
     "first[t] = peak.size - 1 - np.argmin(peak[::-1])",
     ["tests/test_training.py::test_the_schedule_has_the_least_count_of_every_schedule"]),
    # the schedule runs its segments shortest first, so the longest is swept
    # with every start state alive
    ("training.py", "    return lengths\n", "    return lengths[::-1]\n",
     ["tests/test_training.py::test_the_schedule_has_the_least_count_of_every_schedule",
      "tests/test_training.py::test_the_schedules_of_bench_and_the_dense_graph"]),
    # the bulk parser accepts a line break inside a line
    ("graphs.py", "            or ((byte == 10) & (after != 0)).any()\n", "",
     ["tests/test_graphs.py::test_loader_matches_the_line_by_line_oracle",
      "tests/test_graphs.py::test_loader_matches_the_oracle_on_lines_numpy_may_read_differently"]),
    # the bulk parser lets a run of 19 digits through
    ("graphs.py", 'b"\\1" * 19', 'b"\\1" * 20',
     ["tests/test_graphs.py::test_loader_matches_the_line_by_line_oracle",
      "tests/test_graphs.py::test_loader_matches_the_oracle_on_lines_numpy_may_read_differently",
      "tests/test_graphs.py::test_ids_beyond_int64_name_the_line"]),
    # the dump parser takes a second header, or one after an edge line
    ("graphs.py", "                if n_nodes is not None or u:\n", "                if False:\n",
     ["tests/test_cli.py::test_bad_graph_dump_line_exits_1_naming_the_line",
      "tests/test_graphs.py::test_dump_header_after_an_edge_line_names_its_line"]),
    # the dump parser takes a header after an edge line when none came before
    ("graphs.py", "if n_nodes is not None or u:", "if n_nodes is not None:",
     ["tests/test_graphs.py::test_dump_header_after_an_edge_line_names_its_line"]),
    # a resumed run trains a checkpoint of another model kind or a later epoch
    ("training.py", "if kind != cfg.model_kind or done > cfg.epochs:", "if False:",
     ["tests/test_cli.py::test_resume_that_contradicts_the_checkpoint_exits_1"]),
    # the loss gradient drops the -1 of each edge's u endpoint
    ("training.py", "np.tile([1.0, -1.0], rows)", "np.tile([1.0, 1.0], rows)",
     ["tests/test_training.py::test_loss_gradient_matches_fd",
      "tests/test_training.py::test_grad_through_sim_matches_fd",
      "tests/test_acceptance.py::test_c01_gradient_fidelity"]),
    # the loss's edge blocks stop one edge short, so the last edge is lost
    ("training.py", "hi = min(lo + rows, m)", "hi = min(lo + rows, m - 1)",
     ["tests/test_training.py::test_streamed_loss_matches_the_whole_array_oracle_bitwise"]),
    # the loss gradient scatters +1 to u and -1 to v
    ("training.py", "ends[:b, 0], ends[:b, 1] = v[lo:hi], u[lo:hi]",
     "ends[:b, 0], ends[:b, 1] = u[lo:hi], v[lo:hi]",
     ["tests/test_training.py::test_loss_gradient_matches_fd",
      "tests/test_training.py::test_streamed_loss_matches_the_whole_array_oracle_bitwise"]),
    # the loss gradient divides by the length of a zero-length edge
    ("training.py", "live = dist > 0", "live = dist >= 0",
     ["tests/test_training.py::test_streamed_loss_matches_the_whole_array_oracle_bitwise"]),
    # the batched tie-break draws edge e's units at e + j*k, not e*k + j
    ("forcefield.py", "edges[:, None] * k + np.arange(k)", "edges[:, None] + np.arange(k) * k",
     ["tests/test_forcefield.py::test_tie_units_are_the_per_edge_units_bitwise"]),
]


def run_mutant(path: str, old: str, new: str, tests: list[str]) -> str:
    """'killed', 'SURVIVED' or 'ERROR: ...' for one mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        target = src / "graphspring" / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return f"ERROR: the old text occurs {text.count(old)} times"
        target.write_text(text.replace(old, new, 1), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *tests], cwd=ROOT, env=env, capture_output=True, text=True)
    if result.returncode == 0:
        return "SURVIVED"
    if result.returncode == 1:
        return "killed"
    last = (result.stdout.strip().splitlines() or ["no output"])[-1]
    return f"ERROR: pytest exited {result.returncode}: {last}"


def main() -> int:
    bad = 0
    for path, old, new, tests in MUTANTS:
        outcome = run_mutant(path, old, new, tests)
        bad += outcome != "killed"
        edit = f"{old.strip()!r} -> {new.strip()!r}"
        print(f"{outcome:9} {path:14} {edit}", flush=True)
    print(f"{len(MUTANTS)} mutants, {len(MUTANTS) - bad} killed, {bad} not")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
