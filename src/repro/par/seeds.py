"""Hash-based seed-stream splitting.

Arithmetic seed schedules (``seed + 7919 * round``) are fragile under
resharding: two different ``(round, walk)`` pairs can collide, and
changing the job count silently reorders which walk consumes which RNG
stream.  :func:`derive_seed` replaces them with a keyed hash: the seed of
every stream is a pure function of the root seed and the stream's
*labels* (strings, indices, tuples -- anything with a stable ``repr``),
so shard order and job count cannot perturb any stream.
"""

from __future__ import annotations

__all__ = ["derive_seed"]

#: seeds are confined to 63 bits so they stay exact in any JSON tooling
_SEED_MASK = (1 << 63) - 1


def derive_seed(*parts) -> int:
    """Derive a 63-bit seed from ``parts`` by hashing.

    Each part is framed as ``<typename>:<repr>`` before hashing, so
    ``derive_seed(1)`` and ``derive_seed("1")`` are distinct streams and
    no concatenation ambiguity exists between adjacent parts.
    """
    import hashlib  # on first use: it maps OpenSSL, about 4 MB of RSS

    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(f"{type(part).__name__}:{part!r}".encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big") & _SEED_MASK
