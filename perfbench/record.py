"""Record the answers that benchmark runs are compared against.

    python3 perfbench/record.py [workload ...]

Solves the first rounds of seed 0 of each seeded workload in one fresh
process, and every `cli` invocation, and writes the digest of each exact
answer to perfbench/expected/<workload>.json, keyed by the problem's input.
Run it only at a commit whose answers are known to be right: a run fails
any problem whose answer differs from the recorded one.
"""

import itertools
import json
import sys

from run import EXPECTED, Deadline, worker
from workloads import WORKLOADS, problems, round_size

SEED = 0
# More rounds than a run of seed 0 solves at the recorded commit.
ROUNDS = {"opers": 2, "reproduce": 2, "gaudin": 2, "cli": 1}


def record(workload):
    plist = list(itertools.islice(problems(workload, SEED),
                                  ROUNDS[workload] * round_size(workload)))
    reply = worker({"workload": workload, "problems": plist}, Deadline(1800))
    failed = [r for r in reply["results"] if r["failure"] is not None and workload != "cli"]
    if failed:
        raise SystemExit(f"{workload}: not recording failed answers: {failed[0]['failure']}")
    digests = {r["key"]: r["digest"] for r in reply["results"]}
    EXPECTED.mkdir(exist_ok=True)
    path = EXPECTED / f"{workload}.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{workload}: {len(digests)} answers -> {path}")


def main():
    for workload in sys.argv[1:] or WORKLOADS:
        record(workload)


if __name__ == "__main__":
    main()
