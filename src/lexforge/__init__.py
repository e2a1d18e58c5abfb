"""Dataset forge, training math and evaluation for asymmetric legal case retrieval.

Import the modules themselves (``from lexforge import retrieval``); the
package imports none of them, so a stage loads only what it runs.
"""

__version__ = "0.1.0"
