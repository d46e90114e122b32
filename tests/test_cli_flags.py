"""The command-line flag surface: every subcommand's options, locked.

The table lists, for each option of each subcommand, its (dest, type, default,
choices, required, action).  A change that moves flags between parsers must
leave it as it is; adding, dropping or changing a flag means changing the
table on purpose.
"""

import argparse
import re
from pathlib import Path

from graphspring.cli import build_parser

FLAG_SURFACE = {
    "bench": {
        "--config": ("config", str, None, None, False, "store"),
        "--from-manifest": ("from_manifest", str, None, None, False, "store"),
        "--out": ("out", str, None, None, False, "store"),
        "--reps": ("reps", int, None, None, False, "store"),
    },
    "embed": {
        "--binary": ("binary", None, None, None, False, "store_true"),
        "--config": ("config", str, None, None, False, "store"),
        "--damping": ("damping", float, None, None, False, "store"),
        "--dt": ("dt", float, None, None, False, "store"),
        "--format": ("format", None, None, ["plain", "rating_csv"], False, "store"),
        "--from-manifest": ("from_manifest", str, None, None, False, "store"),
        "--graph": ("graph", None, None, None, False, "store"),
        "--hidden-edges": ("hidden_edges", str, None, None, False, "store"),
        "--input": ("input", None, None, None, False, "store"),
        "--k": ("k", int, None, None, False, "store"),
        "--mu": ("mu", float, None, None, False, "store"),
        "--n-steps": ("n_steps", int, None, None, False, "store"),
        "--out": ("out", str, None, None, False, "store"),
        "--p-hidden": ("p_hidden", float, None, None, False, "store"),
        "--params": ("params", None, None, None, False, "store"),
        "--seed": ("seed", int, None, None, False, "store"),
        "--semi-implicit": ("semi_implicit", None, None, None, False, "store_true"),
        "--split-seed": ("split_seed", int, None, None, False, "store"),
        "--trace": ("trace", str, None, None, False, "store"),
    },
    "eval": {
        "--config": ("config", str, None, None, False, "store"),
        "--damping": ("damping", float, None, None, False, "store"),
        "--dt": ("dt", float, None, None, False, "store"),
        "--embeddings": ("embeddings", None, None, None, False, "store"),
        "--format": ("format", None, None, ["plain", "rating_csv"], False, "store"),
        "--from-manifest": ("from_manifest", str, None, None, False, "store"),
        "--graph": ("graph", None, None, None, False, "store"),
        "--input": ("input", None, None, None, False, "store"),
        "--k": ("k", int, None, None, False, "store"),
        "--mu": ("mu", float, None, None, False, "store"),
        "--n-steps": ("n_steps", int, None, None, False, "store"),
        "--out": ("out", str, None, None, False, "store"),
        "--p-hidden": ("p_hidden", float, None, None, False, "store"),
        "--params": ("params", None, None, None, False, "store"),
        "--seeds": ("seeds", str, None, None, False, "store"),
        "--semi-implicit": ("semi_implicit", None, None, None, False, "store_true"),
        "--threads": ("threads", int, None, None, False, "store"),
    },
    "ingest": {
        "--format": ("format", None, "plain", ["plain", "rating_csv"], False, "store"),
        "--input": ("input", None, None, None, True, "store"),
        "--out": ("out", str, None, None, False, "store"),
    },
    "split": {
        "--format": ("format", None, "plain", ["plain", "rating_csv"], False, "store"),
        "--graph": ("graph", None, None, None, False, "store"),
        "--input": ("input", None, None, None, False, "store"),
        "--out": ("out", str, None, None, False, "store"),
        "--p-hidden": ("p_hidden", float, None, None, True, "store"),
        "--seed": ("seed", int, None, None, False, "store"),
        "--split-seed": ("split_seed", int, None, None, False, "store"),
    },
    "train": {
        "--checkpoint-every": ("checkpoint_every", int, None, None, False, "store"),
        "--config": ("config", str, None, None, False, "store"),
        "--damping": ("damping", float, None, None, False, "store"),
        "--dt": ("dt", float, None, None, False, "store"),
        "--epochs": ("epochs", int, None, None, False, "store"),
        "--format": ("format", None, None, ["plain", "rating_csv"], False, "store"),
        "--from-manifest": ("from_manifest", str, None, None, False, "store"),
        "--graph": ("graph", None, None, None, False, "store"),
        "--input": ("input", None, None, None, False, "store"),
        "--k": ("k", int, None, None, False, "store"),
        "--lr": ("lr", float, None, None, False, "store"),
        "--model": ("model", None, None, ["spring", "spring-nn"], False, "store"),
        "--mu": ("mu", float, None, None, False, "store"),
        "--n-steps": ("n_steps", int, None, None, False, "store"),
        "--out": ("out", str, None, None, False, "store"),
        "--p-hidden": ("p_hidden", float, None, None, False, "store"),
        "--resume": ("resume", str, None, None, False, "store"),
        "--seed": ("seed", int, None, None, False, "store"),
        "--semi-implicit": ("semi_implicit", None, None, None, False, "store_true"),
        "--split-seed": ("split_seed", int, None, None, False, "store"),
        "--val-fraction": ("val_fraction", float, None, None, False, "store"),
    },
}


def subcommands(parser: argparse.ArgumentParser) -> dict:
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def flag_surface(parser: argparse.ArgumentParser) -> dict:
    actions = {argparse._StoreAction: "store", argparse._StoreTrueAction: "store_true"}
    return {
        name: {" ".join(a.option_strings): (a.dest, a.type, a.default, a.choices,
                                            a.required, actions[type(a)])
               for a in command._actions if a.option_strings and a.dest != "help"}
        for name, command in subcommands(parser).items()}


def test_every_subcommand_keeps_its_flags():
    assert flag_surface(build_parser()) == FLAG_SURFACE


def test_readme_names_only_flags_the_cli_has():
    """Every --flag README names is an option of some subcommand, except
    --epoch, its example of a prefix that is not expanded."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*",
                           readme.read_text(encoding="utf-8")))
    flags = {flag for command in subcommands(build_parser()).values()
             for action in command._actions for flag in action.option_strings}
    assert named - flags == {"--epoch"}
