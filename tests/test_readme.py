"""README.md states the CLI's contract in three tables: config keys, exit
codes and run artifacts.  Each is read here and compared with cli."""

import ast
import inspect
import itertools
import json
import textwrap
from pathlib import Path

import pytest

import lorentz_embed.cli as cli

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")

# the prose of each config key whose _DEFAULTS value is None: required, or
# derived from other values (cli._derive_and_relate, ExhaustionSchedule)
DERIVED = {
    "metric.family": ("required",),
    "metric.r_max": ("max(radii) + max(audit.r0_list) + 1.5",),
    "grid.n_r": ("max(ceil(l nodes_per_unit), 16)", f"{cli._DISC_N_R} on a chart disc"),
    "exhaustion.radii": ("required",),
    "exhaustion.l_obs": ("radii[0] - 1 on balls", "0.75 radii[0] on a chart disc"),
}
# the "must be" cell that states each limit of what a config may build
LIMITS = {
    "metric.r_max": (cli._MAX_R_MAX, cli._MAX_WARP_EXPONENT),
    "exhaustion.radii": (cli._MAX_WARP_EXPONENT,),
    "grid.n_r": (cli._MAX_GRID_NODES,),
    "grid.n_theta": (cli._MAX_BLOCK_DOUBLES,),
}


def _table(heading):
    """The rows of the first table under ``heading``, each a dict of its
    cells by column name, with the backticks of code spans removed."""
    lines = README.split(f"\n{heading}\n", 1)[1].splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("|"))
    rows = [[cell.strip().replace("`", "") for cell in line.strip().strip("|").split("|")]
            for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:])]
    header, rule, *body = rows
    assert set(rule) == {"---"} and all(len(cells) == len(header) for cells in body)
    return [dict(zip(header, cells)) for cells in body]


def _readers(section, key):
    """The families whose runs read ``section.key``."""
    families = cli._FAMILIES.items()
    if section == "metric":
        return {name for name, (_, keys, _) in families if key == "family" or key in keys}
    if section in cli._KIND_KEYS["polar"]:
        return {name for name, (kind, _, _) in families if key in cli._KIND_KEYS[kind][section]}
    return set(cli._FAMILIES)


def _spelled(limit):
    """A limit as the README writes it: a power of two as 2^k."""
    if isinstance(limit, int) and limit & (limit - 1) == 0:
        return f"2^{limit.bit_length() - 1}"
    return f"{limit:g}"


def test_config_keys_table_is_defaults():
    table = _table("### Config keys")
    rows = {row["key"]: row for row in table}
    defaults = {f"{section}.{key}": value
                for section, keys in cli._DEFAULTS.items() for key, value in keys.items()}
    assert sorted(rows) == sorted(defaults) and len(rows) == len(table)
    assert sorted(name for name, value in defaults.items() if value is None) == sorted(DERIVED)
    for name, row in rows.items():
        families = row["families"]
        named = set(cli._FAMILIES) if families == "all" else set(families.split(", "))
        assert named == _readers(*name.split(".")), name
        default = defaults[name]
        if default is None:
            assert all(text in row["default"] for text in DERIVED[name]), name
        else:
            try:
                given = json.loads(row["default"])
            except json.JSONDecodeError:  # a bare word is a string
                given = row["default"]
            assert given == default and type(given) is type(default), name
        assert row["must be"], name
        if name in cli._NUMBER_RULES:
            assert cli._NUMBER_RULES[name][0] in row["must be"], name
        for limit in LIMITS.get(name, ()):
            assert _spelled(limit) in row["must be"], (name, limit)


def _returned_codes():
    """The int constants the commands, main and the lock wrapper return."""
    codes = set()
    for fn in (cli.cmd_solve, cli.cmd_verify, cli.cmd_embed, cli.main, cli._exit_5_if_locked):
        tree = ast.parse(textwrap.dedent(inspect.getsource(inspect.unwrap(fn))))
        for node in ast.walk(tree):
            if isinstance(node, ast.Return) and node.value is not None:
                codes |= {sub.value for sub in ast.walk(node.value)
                          if isinstance(sub, ast.Constant) and type(sub.value) is int}
    return codes


def test_exit_codes_table_is_every_returned_code(capsys):
    rows = _table("### Exit codes")
    with pytest.raises(SystemExit) as usage:  # argparse's own exit
        cli.main(["solve"])
    assert "usage:" in capsys.readouterr().err
    assert {int(row["code"]) for row in rows} == _returned_codes() | {usage.value.code}
    assert all(row["condition"] and row["what is still written"] for row in rows)
    assert len({row["condition"] for row in rows}) == len(rows)  # one row per condition


def test_run_artifacts_table_is_what_a_run_writes():
    rows = _table("### Run artifacts")
    paths = [row["path"] for row in rows]
    assert sorted(paths) == sorted([*cli._RUN_ARTIFACTS, "config.json", "runmeta.json", ".lock"])
    assert len(set(paths)) == len(paths)
    assert {row["deterministic"] for row in rows} == {"yes", "no"}
    assert [row["path"] for row in rows if row["deterministic"] == "no"] == ["runmeta.json"]
    assert all(row["written by"] for row in rows)
