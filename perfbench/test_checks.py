#!/usr/bin/env python3
"""Self-test of the benchmark's output checks: a timed pass whose result
digest differs from the reference pass, or whose requests do not balance,
must be reported as a failed op and make the command exit non-zero.

    python3 perfbench/test_checks.py
"""
import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_injected(what):
    """Runs the minimum number of session_chaos passes with every timed pass
    corrupted; returns (exit code, stdout, parsed result line)."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "session_chaos", "--seed", "1",
         "--seconds", "0", "--trace", "0", "--inject", what],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, proc.stdout, json.loads(lines[-1]) if lines else None


class InjectedFailures(unittest.TestCase):
    def check_reported(self, what, reason):
        code, stdout, result = run_injected(what)
        self.assertNotEqual(code, 0)
        self.assertIn("FAILED: " + reason, stdout)
        self.assertIsNotNone(result)
        self.assertFalse(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], result["attempted"])

    def test_perturbed_digest_fails(self):
        self.check_reported("digest", "digest")

    def test_broken_conservation_fails(self):
        self.check_reported("conservation", "requests do not balance")


if __name__ == "__main__":
    unittest.main()
