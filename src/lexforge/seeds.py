"""Deterministic seed derivation.

A single root seed fans out to per-stage and per-record seeds through a
stable hash, so parallel execution order can never change outputs.

The hash is SHA-256 from CPython's built-in module, as :mod:`random` takes
SHA-512: ``hashlib`` would load OpenSSL's libcrypto for the same digest.
"""

from __future__ import annotations

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256


def derive_seed(root: int, *labels: object) -> int:
    """Derive a 64-bit child seed from a root seed and a label path."""
    material = ":".join([str(int(root)), *(str(x) for x in labels)])
    digest = sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")
