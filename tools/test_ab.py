#!/usr/bin/env python3
"""Unit tests of tools/ab.py's statistics.  Run: python3 tools/test_ab.py"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402


class QuantileTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(ab.median([3, 1, 2]), 2)
        self.assertEqual(ab.median([4, 1, 3, 2]), 2.5)

    def test_quantile_interpolates(self):
        xs = [10, 20, 30, 40, 50]
        self.assertEqual(ab.quantile(xs, 0.0), 10)
        self.assertEqual(ab.quantile(xs, 1.0), 50)
        self.assertEqual(ab.quantile(xs, 0.25), 20)
        self.assertAlmostEqual(ab.quantile([1, 2], 0.25), 1.25)

    def test_iqr(self):
        self.assertEqual(ab.iqr([1, 2, 3, 4, 5]), 2)
        self.assertEqual(ab.iqr([7]), 0)

    def test_empty_rejected(self):
        with self.assertRaises(ValueError):
            ab.median([])


class SummarizeTest(unittest.TestCase):
    def test_clear_gain_lower_is_better(self):
        a = [1.30, 1.33, 1.36, 1.27, 1.31, 1.34, 1.32, 1.35, 1.29, 1.33]
        b = [x * 0.65 for x in a]
        s = ab.summarize(a, b, lower_is_better=True)
        self.assertEqual(s["better"], 10)
        self.assertEqual(s["pairs"], 10)
        self.assertAlmostEqual(s["ratio"], 0.65)
        self.assertTrue(s["clear"])

    def test_higher_is_better_direction(self):
        s = ab.summarize([500, 520, 510], [700, 720, 710], lower_is_better=False)
        self.assertEqual(s["better"], 3)
        self.assertTrue(s["clear"])
        s = ab.summarize([500, 520, 510], [700, 720, 710], lower_is_better=True)
        self.assertEqual(s["better"], 0)
        self.assertFalse(s["clear"])

    def test_gain_inside_the_spread_is_not_clear(self):
        # B wins every pair, but by less than A's interquartile range.
        a = [1.0, 2.0, 3.0, 4.0, 5.0]
        b = [x - 0.5 for x in a]
        s = ab.summarize(a, b, lower_is_better=True)
        self.assertEqual(s["better"], 5)
        self.assertEqual(s["iqr_a"], 2.0)
        self.assertFalse(s["clear"])

    def test_too_few_better_pairs_is_not_clear(self):
        a = [10.0] * 10
        b = [5.0] * 8 + [11.0, 11.0]
        s = ab.summarize(a, b, lower_is_better=True)
        self.assertEqual(s["better"], 8)
        self.assertFalse(s["clear"])
        self.assertTrue(ab.summarize(a, b, True, need=0.8)["clear"])

    def test_ties_do_not_count_as_better(self):
        s = ab.summarize([1, 1, 1], [1, 1, 1], lower_is_better=True)
        self.assertEqual(s["better"], 0)
        self.assertFalse(s["clear"])

    def test_zero_base_median_gives_nan_ratio(self):
        s = ab.summarize([0, 0], [1, 1], lower_is_better=True)
        self.assertTrue(math.isnan(s["ratio"]))

    def test_mismatched_samples_rejected(self):
        with self.assertRaises(ValueError):
            ab.summarize([1, 2], [1], lower_is_better=True)
        with self.assertRaises(ValueError):
            ab.summarize([], [], lower_is_better=True)


if __name__ == "__main__":
    unittest.main()
