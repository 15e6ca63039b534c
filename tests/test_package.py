"""The package is what the CLI runs: every function in ``src/biblock`` is
entered by some subcommand, and the source carries no leftovers of code
that moved to the tests."""

import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from biblock import format_edge_list
from conftest import FIXTURES, build_two_block, random_biblock

PACKAGE = Path(__file__).parent.parent / "src" / "biblock"

# Seeds of ``random_biblock(rng, rng.randint(5, 14))`` whose normalize
# traces between them take every case of the rewrite system.
NORMALIZE_SEEDS = {
    "case 1": 51,
    "case 2": 19,
    "two-block subcase 3.1": 608,
    "two-block subcase 3.2": 28,
    "case 3 subcase 1": 35843,
    "case 3 subcase 2.1": 280,
    "case 3 subcase 2.2": 2055,
    "case 4": 2,
    "case 5 merge": 2643,
    "case 5 reattach": 310,
    "block-index reduction": 1268,
}

TRACE_RUN = """
import contextlib, importlib, inspect, io, json, pkgutil, sys

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
import biblock.cli

fig1, two_block, argvs = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
cases = set()
for argv in argvs:
    argv = [fig1 if a == "FIG1" else two_block if a == "TWO_BLOCK" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        biblock.cli.main(argv)
    if argv[0] == "normalize" and argv[-1] == "json":
        cases.update(step["case"] for step in json.loads(out.getvalue())["steps"])
sys.setprofile(None)


def functions(cls):
    for attr, member in vars(cls).items():
        if attr.startswith("__") and attr.endswith("__"):
            continue
        fn = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
        if inspect.isfunction(fn):
            yield f"{cls.__qualname__}.{attr}", fn


never = []
for info in pkgutil.iter_modules(biblock.__path__):
    mod = importlib.import_module(f"biblock.{info.name}")
    for name, obj in vars(mod).items():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        found = [(name, obj)] if inspect.isfunction(obj) else []
        if inspect.isclass(obj):
            found = list(functions(obj))
        never += [f"{info.name}.{q}" for q, fn in found
                  if fn.__code__.co_filename == mod.__file__ and fn.__code__ not in entered]
print(json.dumps({"never": sorted(never), "cases": sorted(cases)}))
"""


def corpus(normalize_paths):
    """Every subcommand in both formats on fig1 and each rewrite kind,
    identities on two blocks, the generation commands with and without
    --alpha, and normalize on the seeded inputs."""
    argvs = []
    for fmt in ("text", "json"):
        for command in (
            ["validate"], ["decompose"], ["alpha", "--witness"], ["rho"], ["identities"],
            ["normalize"],
            ["rewrite", "--kind", "merge", "--f-block", "0", "--h-block", "1"],
            ["rewrite", "--kind", "reattach", "--f-block", "0", "--h-block", "1"],
            ["rewrite", "--kind", "split", "--f-block", "0", "--h-block", "1"],
            ["rewrite", "--kind", "reduce", "--vertex", "1", "--bi-block", "0",
             "--bj-block", "1"],
        ):
            argvs.append([*command, "--input", "FIG1", "--format", fmt])
        argvs.append(["identities", "--input", "TWO_BLOCK", "--format", fmt])
        for command in (["verify-theorem", "--k", "6"], ["enumerate", "--k", "5"]):
            argvs.append([*command, "--format", fmt])
            argvs.append([*command, "--alpha", "4", "--format", fmt])
    argvs += [["normalize", "--input", p, "--format", "json"] for p in normalize_paths]
    return argvs


def test_every_function_is_on_the_cli_path(tmp_path):
    paths = []
    for seed in sorted(NORMALIZE_SEEDS.values()):
        rng = random.Random(seed)
        g = random_biblock(rng, rng.randint(5, 14))
        paths.append(tmp_path / f"seed{seed}.edges")
        paths[-1].write_text(format_edge_list(g))
    two_block = tmp_path / "two_block.edges"
    two_block.write_text(format_edge_list(build_two_block(2, 3, 2, 2)))
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", TRACE_RUN, str(FIXTURES / "fig1.edges"), str(two_block),
         json.dumps(corpus([str(p) for p in paths]))],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["cases"] == sorted(NORMALIZE_SEEDS)
    assert report["never"] == []


def module_trees():
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def names_read(tree):
    """Every identifier a module reads, and every attribute it looks up."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for name, tree in module_trees().items():
        if name == "__init__.py":  # its imports are the package's exports
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_every_error_is_named_outside_errors_py():
    trees = module_trees()
    errors = [n.name for n in trees.pop("errors.py").body if isinstance(n, ast.ClassDef)]
    named = set()
    for tree in trees.values():
        named |= names_read(tree)
        named |= {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
    assert [e for e in errors if e not in named] == []
