"""Checks the committed exact counts (perfbench/expected.json) once against
the frozen ReferenceBackend: every workload's (model x image) pool is
simulated by the reference oracle, and its spike, SOP, priced-cycle and
priced-energy totals must equal the committed values every run is gated on.
For the quantized workloads the reference simulates the quantized net in
float; the quantized backend must reproduce those integer artifacts.

Builds the harness like run.py does (a few minutes the first time).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import subprocess
import sys
import unittest

import run


class ReferenceTest(unittest.TestCase):
    def test_committed_totals_match_the_reference_simulator(self):
        run.build()
        run.OUT.mkdir(parents=True, exist_ok=True)
        record = run.OUT / "check-reference.json"
        subprocess.run([str(run.HARNESS), "--check-reference", "--out", str(record)],
                       check=True, stdout=sys.stderr, timeout=600)
        got = json.loads(record.read_text())
        expected = json.loads((run.HERE / "expected.json").read_text())
        self.assertEqual(set(expected), set(run.WORKLOADS))
        for workload, totals in expected.items():
            for key in ("items", "spikes", "sops", "hw_cycles", "energy_uj"):
                with self.subTest(workload=workload, key=key):
                    self.assertEqual(got[f"{workload}.pool.{key}"], totals[key])


if __name__ == "__main__":
    unittest.main()
