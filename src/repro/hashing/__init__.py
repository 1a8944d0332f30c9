"""Hashing and prefix-truncation primitives.

Safe Browsing anonymizes URLs with a *hash-and-truncate* scheme: every URL
decomposition is hashed with SHA-256 and only the first 32 bits of the digest
(the *prefix*) are kept in the client-side database and sent to the server on
a hit.  This package provides:

* :func:`sha256_digest` / :func:`full_digest` -- the full 256-bit digest of a
  canonicalized URL expression.
* :class:`Prefix` -- an immutable value object representing an ``n``-bit
  prefix of a digest, together with parsing/formatting helpers.
* :class:`PrefixRun` -- many same-width prefixes packed into one ``bytes``:
  the form update chunks take on the wire, in SQLite and in snapshots.
* :func:`url_prefix` -- the one-call helper used throughout the library:
  canonical expression in, 32-bit (or custom-width) prefix out.
* :class:`PrefixSet` -- a small set algebra over prefixes used by the
  analysis layer (intersections between blacklists, orphan detection, ...).
"""

from repro.hashing.digests import (
    DEFAULT_PREFIX_BITS,
    FullHash,
    digests_of,
    full_digest,
    prefixes_of,
    sha256_digest,
    truncate_digest,
    url_prefix,
)
from repro.hashing.prefix import Prefix, PrefixRun
from repro.hashing.prefix_set import PrefixSet

__all__ = [
    "DEFAULT_PREFIX_BITS",
    "FullHash",
    "Prefix",
    "PrefixRun",
    "PrefixSet",
    "digests_of",
    "full_digest",
    "prefixes_of",
    "sha256_digest",
    "truncate_digest",
    "url_prefix",
]
