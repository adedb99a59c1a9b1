#!/usr/bin/env python3
"""Every `go test -run` name in the workflow must still name a test.

The race steps select tests by -run lists ('TestA|TestB|...'); rename one of
them and it silently drops out of CI. For every `go test` command in the
workflow's run blocks this takes the -run pattern apart at its top-level `|`
and asks `go test -list <alternative> <the command's packages>` whether
anything still matches. Exit status 1 lists the alternatives that match
nothing.
"""
import re
import shlex
import subprocess
import sys

import yaml

SKIP = {"NONE", "^$"}  # the benchmark steps' "run no test" idiom


def commands(workflow):
    """Yield the token list of every simple command in every run block."""
    for job in workflow["jobs"].values():
        for step in job["steps"]:
            for line in step.get("run", "").splitlines():
                try:
                    tokens = shlex.split(line, comments=True)
                except ValueError:
                    continue  # a line of an embedded script, not a command
                cmd = []
                for tok in tokens + ["&&"]:
                    if tok in ("&&", "||", ";", "|"):
                        if cmd:
                            yield cmd
                        cmd = []
                    else:
                        cmd.append(tok)


def run_pattern(cmd):
    for i, tok in enumerate(cmd):
        if tok == "-run" and i + 1 < len(cmd):
            return cmd[i + 1]
        if tok.startswith("-run="):
            return tok[len("-run="):]
    return None


def main(path):
    with open(path) as f:
        workflow = yaml.safe_load(f)
    checked, missing = 0, []
    for cmd in commands(workflow):
        if cmd[:2] != ["go", "test"]:
            continue
        pattern = run_pattern(cmd)
        if pattern is None or pattern in SKIP:
            continue
        pkgs = [t for t in cmd[2:] if t == "." or t.startswith("./")]
        for alt in pattern.split("|"):
            out = subprocess.run(["go", "test", "-list", alt] + pkgs,
                                 capture_output=True, text=True)
            if out.returncode != 0:
                sys.stderr.write(out.stdout + out.stderr)
                return 1
            checked += 1
            if not re.search(r"^(Test|Benchmark|Fuzz|Example)", out.stdout, re.M):
                missing.append("-run %r in %s" % (alt, " ".join(pkgs)))
    for m in missing:
        print("matches no test: " + m, file=sys.stderr)
    print("%d -run alternatives checked, %d match nothing" % (checked, len(missing)))
    return 1 if missing or checked == 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else ".github/workflows/ci.yml"))
