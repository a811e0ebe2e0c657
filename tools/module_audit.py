#!/usr/bin/env python3
"""Fail when a library header has no caller outside its own module and tests.

    python3 tools/module_audit.py

Run from anywhere in a checkout. For every src/**/*.hpp, collects the files
that #include it (by its src-relative path, "dir/name.hpp"). A header passes
when something other than its own .cpp includes it from src/, tools/,
bench/ or examples/; one reached only by its own .cpp and tests/ is code the
library links but nothing uses, and is reported. Exits 1 on any report.
"""
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
USER_DIRS = ("src", "tools", "bench", "examples")
SCAN_DIRS = USER_DIRS + ("tests",)
SOURCE_EXT = (".hpp", ".cpp", ".h", ".cc")
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def sources(top):
    for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
        for name in files:
            if name.endswith(SOURCE_EXT):
                yield os.path.relpath(os.path.join(dirpath, name), ROOT)


def main():
    includers = {}  # "dir/name.hpp" -> set of repo-relative includer paths
    for top in SCAN_DIRS:
        for path in sources(top):
            with open(os.path.join(ROOT, path), encoding="utf-8") as f:
                for target in INCLUDE.findall(f.read()):
                    includers.setdefault(target, set()).add(path)

    unused = []
    for path in sorted(sources("src")):
        if not path.endswith(".hpp"):
            continue
        key = os.path.relpath(path, "src")
        own_cpp = path[: -len(".hpp")] + ".cpp"
        users = {
            p
            for p in includers.get(key, ())
            if p != own_cpp and p.split(os.sep)[0] in USER_DIRS
        }
        if not users:
            tests = sorted(includers.get(key, set()) - {own_cpp})
            unused.append((path, tests))

    for path, tests in unused:
        print("module_audit: %s has no include outside its own .cpp and "
              "tests/ (tests: %s)" % (path, ", ".join(tests) or "none"))
    if unused:
        return 1
    print("module_audit: every src/ header has a caller in src/, tools/, "
          "bench/ or examples/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
