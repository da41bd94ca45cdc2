#!/usr/bin/env python3
"""braid_lint: project-invariant checker for the BrAID tree.

Enforces the rules that are regex-checkable without libclang and that the
compiler cannot (or does not) check for us; see DESIGN.md §"Concurrency
contract" for the rationale of each:

  naked-mutex      No std::mutex / std::lock_guard / std::unique_lock /
                   std::condition_variable / std::shared_mutex outside the
                   annotated wrappers in src/common/mutex.h. Naked
                   primitives are invisible to Clang Thread Safety
                   Analysis, so a lock taken through them is a lock the
                   compiler cannot reason about.

  wall-clock       No rand()/srand()/std::random_device or calendar time
                   (time(), system_clock, localtime, ...) in src/.
                   Deterministic components draw randomness from the
                   seeded braid::Rng and charge time to the simulated
                   NetworkModel clock; nondeterminism here breaks the
                   differential oracle's seed-reproducibility.

  sleep            No sleeping in src/ (sleep_for/sleep_until/usleep/
                   nanosleep). Blocking waits go through braid::CondVar;
                   sleeps hide latency bugs and slow the whole suite.

  include-guard    Every header under src/ uses a BRAID_<PATH>_H_ include
                   guard matching its path (#ifndef/#define pair and a
                   trailing #endif comment).

  stray-artifact   No tracked file anywhere in the tree whose *name* looks
                   like shell debris: a comma, quote, backtick, `$`, `;`,
                   `|`, `&`, parentheses, whitespace, `=`, or a leading
                   `-`. Such names are almost always an accidentally
                   committed redirect/typo artifact (a file literally
                   named `hich,$p` — stray `git log | w...` output —
                   shipped in one PR), never a real source file.

  bench-artifact   Every BENCH_*.json name mentioned in a bench/bench_*.cc
                   or a tools/*.cc must appear in .github/workflows/ci.yml
                   — the bench jobs and bench-style tools (braid_loadgen)
                   write these files and an upload-artifact step must
                   ship them, otherwise the output is silently dropped on
                   every CI run. (Literal names only: a path computed at
                   runtime is invisible to this check.)

Legitimate exceptions are listed in tools/braid_lint_allowlist.txt as
"<rule> <path> — <reason>" lines; an allowlist entry that no longer
matches anything is itself an error, so the list cannot rot.

Exit status: 0 clean, 1 violations, 2 usage/internal error.

Run locally:  python3 tools/braid_lint.py
Self-test:    python3 tools/braid_lint.py --self-test
"""

import argparse
import os
import re
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (rule, regex, message). Patterns are matched per line with comments and
# string literals stripped, so a mention in a doc comment does not trip.
LINE_RULES = [
    (
        "naked-mutex",
        re.compile(
            r"std::(mutex|recursive_mutex|shared_mutex|timed_mutex|"
            r"lock_guard|unique_lock|shared_lock|scoped_lock|"
            r"condition_variable(_any)?)\b"
        ),
        "naked std synchronization primitive; use braid::Mutex / "
        "braid::MutexLock / braid::CondVar from common/mutex.h so Clang "
        "Thread Safety Analysis can see the lock",
    ),
    (
        "wall-clock",
        re.compile(
            r"(\brand\s*\(|\bsrand\s*\(|std::random_device\b|"
            r"std::time\b|[^\w.]time\s*\(\s*(NULL|nullptr|0)?\s*\)|"
            r"system_clock\b|\blocaltime\s*\(|\bgmtime\s*\()"
        ),
        "unseeded randomness / calendar time in deterministic code; use "
        "braid::Rng (seeded) or the simulated NetworkModel clock",
    ),
    (
        "sleep",
        re.compile(r"(sleep_for|sleep_until|\busleep\s*\(|\bnanosleep\s*\()"),
        "sleeping in src/; block on a braid::CondVar or model the delay in "
        "simulated time",
    ),
]

GUARD_RULE = "include-guard"
STRAY_RULE = "stray-artifact"
BENCH_RULE = "bench-artifact"

BENCH_JSON_RE = re.compile(r"\bBENCH_[A-Za-z0-9_]+\.json\b")
CI_WORKFLOW = os.path.join(".github", "workflows", "ci.yml")

# Shell-metacharacter debris in a file name. A leading '-' is flagged too:
# such names read as option flags to most tools and only ever appear by
# accident ("git diff > -o").
STRAY_NAME_RE = re.compile(r"[,;|&()<>*?!\s='\"`$\\]|^-")

# Directories never scanned for stray names (build output is untracked and
# full of generated names; .git has its own naming rules).
STRAY_SKIP_DIRS = {".git"}
STRAY_SKIP_PREFIXES = ("build",)

COMMENT_RE = re.compile(r"//.*$")
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')
CHAR_RE = re.compile(r"'(?:[^'\\]|\\.)*'")


def strip_noncode(line, in_block_comment):
    """Removes string literals and comments; tracks /* */ state."""
    out = []
    i = 0
    n = len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            in_block_comment = False
            continue
        if line.startswith("//", i):
            break
        if line.startswith("/*", i):
            in_block_comment = True
            i += 2
            continue
        if line[i] == '"':
            m = STRING_RE.match(line, i)
            if m:
                out.append('""')
                i = m.end()
                continue
        if line[i] == "'":
            m = CHAR_RE.match(line, i)
            if m:
                out.append("''")
                i = m.end()
                continue
        out.append(line[i])
        i += 1
    return "".join(out), in_block_comment


def expected_guard(relpath):
    """src/cms/cache_model.h -> BRAID_CMS_CACHE_MODEL_H_"""
    assert relpath.startswith("src" + os.sep)
    stem = relpath[len("src" + os.sep):]
    token = re.sub(r"[^A-Za-z0-9]", "_", stem).upper()
    return "BRAID_" + token + "_"


def check_include_guard(relpath, text):
    want = expected_guard(relpath)
    lines = text.splitlines()
    code = [l for l in lines if l.strip() and not l.strip().startswith("//")]
    problems = []
    if (
        len(code) < 2
        or code[0].strip() != "#ifndef " + want
        or code[1].strip() != "#define " + want
    ):
        problems.append(
            (1, "expected include guard '#ifndef %s' / '#define %s'"
             % (want, want))
        )
    endif_ok = any(
        l.strip() == "#endif  // " + want or l.strip() == "#endif // " + want
        for l in reversed(lines[-5:])
    )
    if not endif_ok:
        problems.append(
            (len(lines), "expected closing '#endif  // %s'" % want)
        )
    return problems


def load_allowlist(path):
    """Returns {(rule, relpath): reason}."""
    allow = {}
    if not os.path.exists(path):
        return allow
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            if len(parts) < 2:
                print("braid_lint: malformed allowlist line: %r" % line,
                      file=sys.stderr)
                sys.exit(2)
            rule, rel = parts[0], parts[1]
            reason = parts[2] if len(parts) > 2 else ""
            allow[(rule, rel.replace("/", os.sep))] = reason
    return allow


def lint_file(relpath, text):
    """Returns [(rule, line_number, message)] for one file."""
    findings = []
    in_block = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        code, in_block = strip_noncode(line, in_block)
        if "braid-lint: allow-next-line" in line:
            # (the directive lives in a comment; it suppresses nothing by
            # itself — allowlisting is per-file, to keep review pressure on)
            pass
        for rule, pattern, message in LINE_RULES:
            if pattern.search(code):
                findings.append((rule, lineno, message))
    if relpath.endswith(".h") and relpath.startswith("src" + os.sep):
        for lineno, message in check_include_guard(relpath, text):
            findings.append((GUARD_RULE, lineno, message))
    return findings


def check_stray_artifacts(root):
    """Returns [(relpath, message)] for files whose names look like shell
    debris, anywhere under root outside build output and .git."""
    findings = []
    for dirpath, dirnames, filenames in os.walk(root):
        rel_dir = os.path.relpath(dirpath, root)
        if rel_dir == ".":
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in STRAY_SKIP_DIRS
                and not d.startswith(STRAY_SKIP_PREFIXES)
            )
        else:
            dirnames.sort()
        for name in sorted(filenames):
            if STRAY_NAME_RE.search(name):
                rel = os.path.normpath(os.path.join(rel_dir, name))
                findings.append(
                    (rel,
                     "file name %r looks like an accidentally committed "
                     "shell artifact (metacharacter debris); delete it or "
                     "allowlist it with a reason" % name)
                )
    return findings


def check_bench_artifacts(root):
    """Every BENCH_*.json mentioned in a bench/bench_*.cc or a tools/*.cc
    must appear in the CI workflow (an upload-artifact path); returns
    [(relpath, msg)]."""
    ci_path = os.path.join(root, CI_WORKFLOW)
    if not os.path.exists(ci_path):
        return []
    with open(ci_path, encoding="utf-8") as f:
        ci_text = f.read()
    findings = []
    scanned = (
        ("bench", lambda n: n.startswith("bench_") and n.endswith(".cc")),
        ("tools", lambda n: n.endswith(".cc")),
    )
    for subdir, wanted in scanned:
        dir_path = os.path.join(root, subdir)
        if not os.path.isdir(dir_path):
            continue
        for name in sorted(os.listdir(dir_path)):
            if not wanted(name):
                continue
            with open(os.path.join(dir_path, name), encoding="utf-8") as f:
                text = f.read()
            for json_name in sorted(set(BENCH_JSON_RE.findall(text))):
                if json_name not in ci_text:
                    findings.append(
                        (os.path.join(subdir, name),
                         "writes %s but %s never mentions it; add an "
                         "actions/upload-artifact step so the bench output "
                         "is not silently dropped (or allowlist with a "
                         "reason)"
                         % (json_name, CI_WORKFLOW.replace(os.sep, "/")))
                    )
    return findings


def iter_source_files(root):
    src = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src):
        for name in sorted(filenames):
            if name.endswith((".h", ".cc", ".cpp", ".hpp")):
                full = os.path.join(dirpath, name)
                yield os.path.relpath(full, root)


def run_lint(root, allowlist_path, verbose=False):
    allow = load_allowlist(allowlist_path)
    used = set()
    violations = []
    for rel in iter_source_files(root):
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            text = f.read()
        for rule, lineno, message in lint_file(rel, text):
            key = (rule, rel.replace(os.sep, "/"))
            oskey = (rule, rel)
            if oskey in allow or key in allow:
                used.add(oskey if oskey in allow else key)
                continue
            violations.append("%s:%d: [%s] %s" % (rel, lineno, rule, message))
    for rel, message in check_stray_artifacts(root):
        key = (STRAY_RULE, rel.replace(os.sep, "/"))
        oskey = (STRAY_RULE, rel)
        if oskey in allow or key in allow:
            used.add(oskey if oskey in allow else key)
            continue
        violations.append("%s: [%s] %s" % (rel, STRAY_RULE, message))
    for rel, message in check_bench_artifacts(root):
        key = (BENCH_RULE, rel.replace(os.sep, "/"))
        oskey = (BENCH_RULE, rel)
        if oskey in allow or key in allow:
            used.add(oskey if oskey in allow else key)
            continue
        violations.append("%s: [%s] %s" % (rel, BENCH_RULE, message))
    for key, reason in allow.items():
        if key not in used:
            violations.append(
                "%s: [allowlist] entry for rule '%s' matches nothing "
                "(%s); remove it" % (key[1], key[0], reason or "no reason")
            )
    for v in violations:
        print(v)
    if verbose and not violations:
        print("braid_lint: clean")
    return 0 if not violations else 1


# ---------------------------------------------------------------------------
# Self-test: deliberately bad snippets must be rejected, good ones accepted.

BAD_SNIPPETS = {
    "naked-mutex": "#include <mutex>\nstd::mutex mu;\n",
    "naked-mutex-lock": "void F() { std::lock_guard<std::mutex> l(m); }\n",
    "naked-condvar": "std::condition_variable cv;\n",
    "wall-clock-rand": "int X() { return rand() % 7; }\n",
    "wall-clock-time": "long Y() { return time(nullptr); }\n",
    "wall-clock-chrono":
        "auto Z() { return std::chrono::system_clock::now(); }\n",
    "sleep":
        "void W() { std::this_thread::sleep_for(std::chrono::seconds(1)); }\n",
}

GOOD_SNIPPETS = {
    # Mentions in comments and strings must NOT trip the linter.
    "comment": "// std::mutex is banned; use braid::Mutex\n",
    "string": 'const char* kMsg = "do not call rand() here";\n',
    "wrapper": "braid::MutexLock lock(&mu_);\n",
    "member-time": "double t = sim.time_ms();  // simulated, fine\n",
}

GOOD_HEADER = (
    "#ifndef BRAID_SELFTEST_GOOD_H_\n"
    "#define BRAID_SELFTEST_GOOD_H_\n"
    "int F();\n"
    "#endif  // BRAID_SELFTEST_GOOD_H_\n"
)

BAD_HEADER = "#pragma once\nint F();\n"


def self_test():
    failures = []

    def expect(name, text, relpath, want_dirty):
        findings = lint_file(relpath, text)
        dirty = bool(findings)
        if dirty != want_dirty:
            failures.append(
                "%s: expected %s, got %s (%r)"
                % (name, "violations" if want_dirty else "clean",
                   "violations" if dirty else "clean", findings)
            )

    for name, text in BAD_SNIPPETS.items():
        expect(name, text, os.path.join("src", "x", "snippet.cc"), True)
    for name, text in GOOD_SNIPPETS.items():
        expect(name, text, os.path.join("src", "x", "snippet.cc"), False)
    expect("good-header", GOOD_HEADER,
           os.path.join("src", "selftest", "good.h"), False)
    expect("bad-header", BAD_HEADER,
           os.path.join("src", "selftest", "bad.h"), True)

    # Stray-artifact name matching, including the exact artifact that
    # shipped once ("hich,$p" — redirected git-log output).
    for name in ("hich,$p", "a b.txt", "out|sort", "-o", "x;y", "res`t`"):
        if not STRAY_NAME_RE.search(name):
            failures.append("stray-artifact: %r not flagged" % name)
    for name in ("cache_model.cc", "BENCH_micro.json", ".clang-tidy",
                 "CMakeLists.txt", "braid_lint_allowlist.txt"):
        if STRAY_NAME_RE.search(name):
            failures.append("stray-artifact: %r falsely flagged" % name)

    # bench-artifact: a dropped BENCH json must be flagged — whether the
    # writer lives in bench/ or tools/ — while an uploaded or
    # runtime-computed one must not.
    with tempfile.TemporaryDirectory() as tmp:
        os.makedirs(os.path.join(tmp, "bench"))
        os.makedirs(os.path.join(tmp, "tools"))
        os.makedirs(os.path.join(tmp, ".github", "workflows"))
        with open(os.path.join(tmp, "bench", "bench_x.cc"), "w") as f:
            f.write('const char* kJson = "BENCH_x.json";\n')
        with open(os.path.join(tmp, "bench", "bench_y.cc"), "w") as f:
            f.write('const char* kJson = "BENCH_y.json";\n'
                    'std::string sibling = base + "_trace.json";\n')
        with open(os.path.join(tmp, "tools", "braid_toolgen.cc"), "w") as f:
            f.write('const char* kJson = "BENCH_tool.json";\n')
        with open(os.path.join(tmp, "tools", "braid_okgen.cc"), "w") as f:
            f.write('const char* kJson = "BENCH_ok.json";\n')
        with open(os.path.join(tmp, CI_WORKFLOW), "w") as f:
            f.write("      - uses: actions/upload-artifact@v4\n"
                    "        with:\n"
                    "          path: |\n"
                    "            BENCH_y.json\n"
                    "            BENCH_ok.json\n")
        flagged = check_bench_artifacts(tmp)
        names = [rel for rel, _msg in flagged]
        if os.path.join("bench", "bench_x.cc") not in names:
            failures.append("bench-artifact: dropped BENCH_x.json not "
                            "flagged (%r)" % flagged)
        if os.path.join("bench", "bench_y.cc") in names:
            failures.append("bench-artifact: uploaded BENCH_y.json falsely "
                            "flagged (%r)" % flagged)
        if os.path.join("tools", "braid_toolgen.cc") not in names:
            failures.append("bench-artifact: dropped BENCH_tool.json from "
                            "tools/ not flagged (%r)" % flagged)
        if os.path.join("tools", "braid_okgen.cc") in names:
            failures.append("bench-artifact: uploaded BENCH_ok.json falsely "
                            "flagged (%r)" % flagged)

    # End-to-end over a temp tree: one bad file, one stray artifact, plus
    # a stale allowlist entry that must itself be flagged.
    with tempfile.TemporaryDirectory() as tmp:
        os.makedirs(os.path.join(tmp, "src", "x"))
        with open(os.path.join(tmp, "src", "x", "bad.cc"), "w") as f:
            f.write(BAD_SNIPPETS["naked-mutex"])
        with open(os.path.join(tmp, "hich,$p"), "w") as f:
            f.write("commit 0000000\n")
        # Build output must not be scanned for stray names.
        os.makedirs(os.path.join(tmp, "build-dbg"))
        with open(os.path.join(tmp, "build-dbg", "log (1).txt"), "w") as f:
            f.write("x\n")
        allowlist = os.path.join(tmp, "allow.txt")
        with open(allowlist, "w") as f:
            f.write("sleep src/x/never.cc — stale entry\n")
        import contextlib
        import io
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = run_lint(tmp, allowlist)
        out = buf.getvalue()
        if rc != 1:
            failures.append("end-to-end: expected exit 1, got %d" % rc)
        if "naked-mutex" not in out:
            failures.append("end-to-end: naked-mutex not reported: %r" % out)
        if "hich,$p" not in out:
            failures.append("end-to-end: stray artifact not reported: %r"
                            % out)
        if "log (1).txt" in out:
            failures.append("end-to-end: build output scanned for strays")
        if "matches nothing" not in out:
            failures.append("end-to-end: stale allowlist not reported")

    if failures:
        for f in failures:
            print("braid_lint self-test FAILED: " + f)
        return 1
    print("braid_lint self-test: all %d snippets behaved"
          % (len(BAD_SNIPPETS) + len(GOOD_SNIPPETS) + 2))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repository root (default: the checkout)")
    parser.add_argument("--allowlist", default=None,
                        help="allowlist path (default: "
                             "tools/braid_lint_allowlist.txt under root)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the linter's own snippet tests")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(self_test())
    allowlist = args.allowlist or os.path.join(
        args.root, "tools", "braid_lint_allowlist.txt")
    sys.exit(run_lint(args.root, allowlist, verbose=args.verbose))


if __name__ == "__main__":
    main()
