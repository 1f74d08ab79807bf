"""Benchmark tests import the checkout's ``repro``, like the benchmark."""

from benchenv import use_checkout_sources

use_checkout_sources()
