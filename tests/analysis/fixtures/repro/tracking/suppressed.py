"""Suppression fixture: a real RPR001 finding silenced on its line."""

import time


def log_stamp():
    return time.time()  # repro: allow[RPR001] log line only, never data


def unsuppressed():
    return time.time()  # RPR001: no allow comment here
