"""Run one bubblelab CLI command with every layer entry point traced.

    python3 perfbench/traced_child.py SPANS.json <bubblelab CLI arguments...>

Spans are kept in memory and written to SPANS.json when the command ends.
Exit code: the CLI's own, or 70 if a traced entry point no longer exists.
"""

import json
import sys

from tracer import INTEGRITY_EXIT, TraceIntegrityError, Tracer


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    import bubblelab.cli

    tracer = Tracer()
    try:
        tracer.install()
    except TraceIntegrityError as exc:
        print(f"trace integrity: {exc}", file=sys.stderr)
        return INTEGRITY_EXIT
    code = bubblelab.cli.cli(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"exit": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
