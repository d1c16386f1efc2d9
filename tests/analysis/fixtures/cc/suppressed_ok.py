"""Fixture: the same TM001 offence, suppressed line-by-line."""

import random


def draw():
    return random.random()  # tm: ignore
