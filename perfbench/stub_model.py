"""External black box for the benchmark: a fixed linear rule over stdin/stdout.

Speaks the line-delimited JSON protocol of ``leafage.models.ExternalModel``:

    request:  {"op": "predict", "instances": [[f64, ...], ...]}
    response: {"labels": [int, ...]}

Label 1 when ``0.3 * x[0] + 1.0 * x[1] - 0.1 >= 0``.  The stub measures
itself: per request, the bytes it received and sent and the time from
having read the request line to having flushed the response.  When stdin
closes it writes those records as a JSON list to the path given as its only
argument.

    python3 perfbench/stub_model.py STATS_PATH
"""
import json
import sys
import time

WEIGHTS = (0.3, 1.0)
BIAS = -0.1


def label(row: list[float]) -> int:
    return int(sum(w * x for w, x in zip(WEIGHTS, row)) + BIAS >= 0.0)


def main(stats_path: str) -> None:
    records = []
    for line in sys.stdin:
        start = time.perf_counter()
        request = json.loads(line)
        reply = json.dumps({"labels": [label(r) for r in request["instances"]]})
        sys.stdout.write(reply + "\n")
        sys.stdout.flush()
        busy = time.perf_counter() - start
        records.append(
            {
                "received": len(line.encode()),
                "sent": len(reply.encode()) + 1,
                "busy_s": busy,
            }
        )
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(records, fh)


if __name__ == "__main__":
    main(sys.argv[1])
