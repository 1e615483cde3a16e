"""Two-alternative forced-choice evaluation with a sequential stopping rule.

Simulate annotator populations judging request pairs from two generative
models, or replay recorded crowd votes, and measure the labelling effort
each labelling strategy needs before one model is provably better.

Every name but ``__version__`` is imported from the module that defines it.
"""

__version__ = "0.1.0"
