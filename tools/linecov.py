"""Standard-library line recorder.  ``run OUT -- CMD`` records every Python
process CMD starts (a generated ``sitecustomize.py`` leads ``PYTHONPATH``;
each process writes ``OUT/hits-<pid>.json`` at exit); ``report OUT [--list
PKG]`` prints the never-run lines per package of ``src/repro``.  A line
holding ``# pragma: no cover``, and the block it opens, is not counted."""
import ast, atexit, dis, glob, json, os, subprocess, sys, threading
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.realpath(os.path.join(HERE, "..", "src", "repro"))

def start(out, root=ROOT):
    hits, tracers = defaultdict(set), {}

    def on_call(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in tracers:
            real = os.path.realpath(path)
            seen = real.startswith(root) and hits[real].add

            def local(frame, event, arg):
                if event == "line":
                    seen(frame.f_lineno)
                return local
            tracers[path] = seen and local
        return tracers[path] or None

    def dump():
        sys.settrace(None)
        with open(os.path.join(out, "hits-%d.json" % os.getpid()), "w") as f:
            json.dump({p: sorted(s) for p, s in hits.items()}, f)
    atexit.register(dump)
    threading.settrace(on_call)
    sys.settrace(on_call)

def executable(path):
    """Lines that start a statement and compile to code, minus pragmas."""
    src = open(path).read()
    lines, starts, todo = src.splitlines(), set(), [compile(src, path, "exec")]
    while todo:
        code = todo.pop()
        starts.update(line for _, line in dis.findlinestarts(code) if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    stmts = {n.lineno for n in ast.walk(ast.parse(src)) if isinstance(n, ast.stmt)
             and not (isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant))}
    for at, text in enumerate(lines):
        if "# pragma: no cover" in text:
            stmts.discard(at + 1)
            indent = len(text) - len(text.lstrip())
            for below in range(at + 1, len(lines)) if text.split("#")[0].rstrip().endswith(":") else ():
                if lines[below].strip() and len(lines[below]) - len(lines[below].lstrip()) <= indent:
                    break
                stmts.discard(below + 1)
    return stmts & starts

def report(out, listed=None, root=ROOT):
    hits, totals = defaultdict(set), defaultdict(lambda: (0, 0))
    for name in glob.glob(os.path.join(out, "hits-*.json")):
        for path, seen in json.load(open(name)).items():
            hits[path].update(seen)
    for path in sorted(glob.glob(os.path.join(root, "**", "*.py"), recursive=True)):
        rel, lines = os.path.relpath(path, root), executable(path)
        missed, package = sorted(lines - hits[os.path.realpath(path)]), rel.split(os.sep)[0]
        totals[package] = (totals[package][0] + len(missed), totals[package][1] + len(lines))
        if missed and package == listed:
            print("%s: %s" % (rel, " ".join(map(str, missed))))
    for package, (missed, total) in sorted(totals.items()) + [("total", map(sum, zip(*totals.values())))]:
        print("%-14s %6d never run of %6d" % (package, missed, total))

if __name__ == "__main__":
    verb, out, rest = sys.argv[1], os.path.abspath(sys.argv[2]), sys.argv[3:]
    if verb == "report":
        sys.exit(report(out, rest[1] if rest[:1] == ["--list"] else None))
    os.makedirs(os.path.join(out, "site"), exist_ok=True)
    with open(os.path.join(out, "site", "sitecustomize.py"), "w") as f:
        f.write("import sys\nsys.path.insert(0, %r)\nimport linecov\ndel sys.path[0]\n"
                "linecov.start(%r)\n" % (HERE, out))
    path = os.pathsep.join(filter(None, [os.path.join(out, "site"), os.environ.get("PYTHONPATH")]))
    sys.exit(subprocess.call(rest[rest[:1] == ["--"]:], env=dict(os.environ, PYTHONPATH=path)))
