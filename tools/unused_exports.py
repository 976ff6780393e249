#!/usr/bin/env python3
"""List the values a lib/*/*.mli exports that no caller names.

A `val` counts as used when its name appears, as a whole word outside
comments, in some .ml or .mli file under lib/, bin/, bench/ or
examples/ other than its own module's two files. Values inside a
`module For_testing : sig ... end` block or a `module type` signature
are skipped: the first are test hooks, the second are contracts that
an implementation must meet. Tests do not count as callers. KEEP names
the few exports kept ahead of their first caller, each with its reason.

Run from the repository root:

    python3 tools/unused_exports.py

It prints one `file: val name` line per unused export and exits 1 if
there is any, 0 otherwise.
"""

import pathlib
import re
import sys

ROOTS = ["lib", "bin", "bench", "examples"]
KEEP = {
    ("lib/core/instance.mli", "fluid_lower_bound"):
        "the check of every answer at the service's response boundary"
        " (ROADMAP.md) compares an Optimal claim against it",
}
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def strip_comments(text):
    """Blank out OCaml comments (nested) and string literals, keeping
    line structure."""
    out = []
    i, depth, n = 0, 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("(*", i):
            depth += 1
            i += 2
            out.append("  ")
        elif depth and text.startswith("*)", i):
            depth -= 1
            i += 2
            out.append("  ")
        elif c == '"':
            # Strings are skipped both in and out of comments, so a
            # "(*" inside one opens nothing.
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append(re.sub(r"[^\n]", " ", text[i : j + 1]))
            i = j + 1
        elif depth:
            out.append("\n" if c == "\n" else " ")
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def exported_vals(mli):
    """The `val` names of an interface, outside For_testing blocks and
    module type signatures."""
    tokens = WORD.findall(strip_comments(mli.read_text()))
    names, stack, skip_next_sig = [], [], False
    for k, tok in enumerate(tokens):
        if tok == "module" and k + 1 < len(tokens):
            nxt = tokens[k + 1]
            if nxt == "type" or nxt == "For_testing":
                skip_next_sig = True
        elif tok in ("sig", "struct", "object"):
            stack.append(skip_next_sig or any(stack))
            skip_next_sig = False
        elif tok == "end" and stack:
            stack.pop()
        elif tok == "val" and k + 1 < len(tokens) and not any(stack):
            names.append(tokens[k + 1])
    return names


def main():
    files = sorted(
        p for root in ROOTS for p in pathlib.Path(root).rglob("*.ml*")
        if p.suffix in (".ml", ".mli") and "_build" not in p.parts
    )
    words = {p: set(WORD.findall(strip_comments(p.read_text()))) for p in files}
    unused, total = [], 0
    for mli in sorted(pathlib.Path("lib").glob("*/*.mli")):
        own = {mli, mli.with_suffix(".ml")}
        for name in exported_vals(mli):
            total += 1
            if (str(mli), name) in KEEP:
                continue
            if not any(name in ws for p, ws in words.items() if p not in own):
                unused.append(f"{mli}: val {name}")
    for line in unused:
        print(line)
    print(f"{len(unused)} of {total} exported values have no caller",
          file=sys.stderr)
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
