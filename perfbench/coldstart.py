"""Cold-start probe, run in a fresh interpreter.

    python3 coldstart.py <src dir> <p>^<m> [<p>^<m> ...]

Times ``import seqcx.cli`` and the construction of each listed field, then
prints ``{"import_s": ..., "setup_s": ...}``.  Only ``sys`` and ``time`` are
imported before the clock starts, so the import is measured cold.
"""

import sys
import time


def main() -> int:
    src = sys.argv[1]
    specs = [tuple(int(x) for x in tok.split("^")) for tok in sys.argv[2:]]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import seqcx.cli  # noqa: F401
    from seqcx.field import Field

    imported = time.perf_counter()
    for p, m in specs:
        Field(p, m)
    done = time.perf_counter()
    if not seqcx.cli.__file__.startswith(src):
        sys.stderr.write(f"seqcx imported from {seqcx.cli.__file__}, not {src}\n")
        return 2
    print('{"import_s": %r, "setup_s": %r}' % (imported - start, done - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
