"""`python -m asdnull.cli` with layer spans: the traced form of one report_all
item.  The report and exit code are those of the CLI; the spans go to a file.

    python3 perfbench/traced_cli.py SPANS_FILE ITEM_ID report-all models/X.json
"""

from __future__ import annotations

import sys

from tracer import Tracer


def main() -> int:
    spans_file, item_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.item = item_id
    span = tracer.begin("import")
    import asdnull.cli

    tracer.end(span)
    tracer.install()
    code = asdnull.cli.run(argv)
    sys.stdout.flush()
    tracer.write(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
