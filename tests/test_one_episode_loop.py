"""The observe, act, answer protocol is written out once, in
``policies.play``: no other function of the package builds an environment
or steps one.  ``trainer.build_vocabulary`` reads the world's names and
knowledge base without one."""
import ast
from pathlib import Path

import roommem

PACKAGE = Path(roommem.__file__).parent
MAY_BUILD = {("policies.py", "play")}
MAY_STEP = {("policies.py", "play")}


def _is_env_call(node) -> bool:
    """``RoomEnv(...)`` or ``<module>.RoomEnv(...)``."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return (isinstance(f, ast.Name) and f.id == "RoomEnv") or (
        isinstance(f, ast.Attribute) and f.attr == "RoomEnv")


def _env_uses(tree: ast.AST):
    """(function, 'builds' | 'steps') for each RoomEnv construction and each
    ``.step(...)`` call on a name bound to a RoomEnv, or on one built in
    place.  Nested functions see the names their enclosing functions bind;
    a parameter annotated ``RoomEnv`` counts as bound."""
    found = []

    def visit(node, func, envs):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            local = {a.arg for a in args
                     if a.annotation is not None and "RoomEnv" in ast.unparse(a.annotation)}
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Assign, ast.AnnAssign)) and _is_env_call(sub.value):
                    targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                    local |= {n.id for t in targets for n in ast.walk(t)
                              if isinstance(n, ast.Name)}
            envs = envs | local
        if _is_env_call(node):
            found.append((func, "builds"))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "step"):
            recv = node.func.value
            if (isinstance(recv, ast.Name) and recv.id in envs) or _is_env_call(recv):
                found.append((func, "steps"))
        for child in ast.iter_child_nodes(node):
            visit(child, func, envs)

    visit(tree, None, frozenset())
    return found


def _uses():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    return [(path.name, func, what)
            for path in modules
            for func, what in _env_uses(ast.parse(path.read_text(encoding="utf-8")))]


def test_only_play_builds_and_steps_an_env():
    uses = _uses()
    offenders = [
        f"{module}:{func} {what} a RoomEnv"
        for module, func, what in uses
        if (module, func) not in (MAY_BUILD if what == "builds" else MAY_STEP)
    ]
    assert offenders == []
    # the scan sees the one loop, so an empty offender list means something
    assert ("policies.py", "play", "steps") in uses


def test_scan_flags_a_second_loop():
    tree = ast.parse(
        "def collect(cfg):\n"
        "    env = RoomEnv(cfg)\n"
        "    env.reset()\n"
        "    def go(answer):\n"
        "        return env.step(answer)\n"
        "    return go(None)\n"
        "def grade(env: RoomEnv):\n"
        "    return env.step(None)\n"
        "def train(opt):\n"
        "    opt.step()\n")
    assert sorted(_env_uses(tree)) == [
        ("collect", "builds"), ("go", "steps"), ("grade", "steps")]
