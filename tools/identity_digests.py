"""Print one SHA-256 digest per selection run, to check that a change keeps
every report byte-identical.

Runs every accepted (task, method) pair for seeds 5 and 17, once with a
logistic proxy and once with an MLP proxy (16 hidden units), on synthetic
data with n=803 training rows, so the proxy's batch of 32 and the target's
batch of 24 both end in a partial batch. The target is an MLP and the
baseline pass is measured. Each digest covers the ``deterministic_dict()``
JSON and the rounds CSV with its seconds column dropped; timing is left out.

Usage, from the repository root:

    python3 tools/identity_digests.py > digests.txt

Run it at two commits and diff the outputs: equal lines mean equal reports.
"""

import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from svp.harness import AL_METHODS, CORESET_METHODS, execute_config, rounds_csv  # noqa: E402

DATA = {"synthetic": {"classes": 4, "dim": 8, "separation": 0.8, "noise": 1.2,
                      "n_train": 803, "n_test": 301, "seed": 3}}
PROXIES = {
    "logistic": {"kind": "logistic", "epochs": 3, "learning_rate": 0.5, "batch_size": 32, "seed": 1},
    "mlp16": {"kind": "mlp", "epochs": 3, "learning_rate": 0.3, "batch_size": 32, "seed": 1,
              "hidden_units": 16},
}
TARGET = {"kind": "mlp", "epochs": 4, "learning_rate": 0.3, "batch_size": 24, "seed": 2,
          "hidden_units": 16}


def configs():
    pairs = [("al", m) for m in AL_METHODS] + [("coreset", m) for m in CORESET_METHODS]
    for task, method in pairs:
        for seed in (5, 17):
            for proxy_name, proxy in PROXIES.items():
                config = {"task": task, "method": method, "seed": seed, "proxy": proxy,
                          "target": TARGET, "data": DATA, "measure_baseline": True}
                if task == "al":
                    config["budget_fraction"] = 0.3
                else:
                    config["subset_fraction"] = 0.3
                    config["include_full_data_error"] = True
                yield f"{task} {method} seed={seed} proxy={proxy_name}", config


def digest(report) -> str:
    doc = json.dumps(report.deterministic_dict(), sort_keys=True)
    rows = [line.rsplit(",", 1)[0] for line in rounds_csv(report).splitlines()]
    return hashlib.sha256((doc + "\n" + "\n".join(rows)).encode()).hexdigest()


def main():
    for name, config in configs():
        report, _ = execute_config(config)
        print(f"{name} {digest(report)}", flush=True)


if __name__ == "__main__":
    main()
