"""``python -m tests.docs`` — build or check the API reference."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tests.docs.apigen import build_api_reference, check_api_reference

DEFAULT_OUT = Path(__file__).resolve().parents[2] / "docs" / "api"


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(prog="python -m tests.docs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    build = sub.add_parser("build", help="regenerate docs/api/ (or verify with --check)")
    build.add_argument("--out", type=Path, default=DEFAULT_OUT, help="output directory")
    build.add_argument(
        "--check",
        action="store_true",
        help="do not write; fail if the checked-in pages drifted from the source tree",
    )
    args = parser.parse_args(argv)

    if args.check:
        stale = check_api_reference(args.out)
        if stale:
            print("API reference is stale — run `python -m tests.docs build`:")
            for name in stale:
                print(f"  docs/api/{name}")
            return 1
        print(f"API reference up to date ({args.out})")
        return 0
    written = build_api_reference(args.out)
    print(f"wrote {len(written)} pages to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
