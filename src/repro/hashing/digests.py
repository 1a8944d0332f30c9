"""SHA-256 digests and hash-and-truncate helpers.

The Safe Browsing v3 API hashes the *canonical expression* of a URL
decomposition (host suffix + path prefix, without scheme) with SHA-256
[FIPS 180-4] and stores/transmits the first 32 bits.  This module provides
the digest primitives shared by the client, the server and the analysis
layer.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.exceptions import PrefixError
from repro.hashing.prefix import Prefix

#: Width (in bits) of the prefixes used by the deployed Google and Yandex
#: Safe Browsing services.
DEFAULT_PREFIX_BITS = 32

#: Width (in bits) of a full SHA-256 digest.
FULL_DIGEST_BITS = 256


def sha256_digest(expression: str | bytes) -> bytes:
    """Return the SHA-256 digest of a canonical URL expression.

    ``expression`` is the output of
    :func:`repro.urls.decompose.decompositions` (for example
    ``"petsymposium.org/2016/cfp.php"``); strings are encoded as UTF-8, which
    matches the behaviour of the deployed clients for canonicalized URLs
    (canonicalization percent-escapes every non-ASCII byte, so in practice
    the expression is pure ASCII).
    """
    if isinstance(expression, str):
        expression = expression.encode("utf-8")
    return hashlib.sha256(expression).digest()


@dataclass(frozen=True, slots=True)
class FullHash:
    """A full 256-bit digest of a canonical URL expression.

    The server-side lists pair every 32-bit prefix with the full digests
    sharing that prefix; clients download the full digests on a local hit to
    eliminate false positives.
    """

    digest: bytes

    def __post_init__(self) -> None:
        if len(self.digest) != FULL_DIGEST_BITS // 8:
            raise PrefixError(
                f"a full hash is {FULL_DIGEST_BITS // 8} bytes, got {len(self.digest)}"
            )

    @classmethod
    def of(cls, expression: str | bytes) -> "FullHash":
        """Hash a canonical expression into a :class:`FullHash`."""
        return cls(sha256_digest(expression))

    def prefix(self, bits: int = DEFAULT_PREFIX_BITS) -> Prefix:
        """Return the ``bits``-bit prefix of this digest."""
        return Prefix.from_digest(self.digest, bits)

    def hex(self) -> str:
        """Return the digest as a bare hexadecimal string."""
        return self.digest.hex()

    def __str__(self) -> str:
        return f"0x{self.digest.hex()}"


def _valid_full_hash(digest: bytes) -> FullHash:
    """A :class:`FullHash` of a ``bytes`` digest already known to be 32 bytes.

    Skips ``__post_init__`` for decoders that read a fixed 32-byte field.
    """
    full_hash = object.__new__(FullHash)
    object.__setattr__(full_hash, "digest", digest)
    return full_hash


def full_digest(expression: str | bytes) -> FullHash:
    """Return the :class:`FullHash` of a canonical URL expression."""
    return FullHash.of(expression)


def truncate_digest(digest: bytes, bits: int = DEFAULT_PREFIX_BITS) -> Prefix:
    """Truncate a digest to its first ``bits`` bits."""
    return Prefix.from_digest(digest, bits)


def digests_of(expressions: Iterable[str | bytes]) -> list[FullHash]:
    """Hash a whole batch of canonical expressions.

    Semantically ``[full_digest(e) for e in expressions]``, but in one tight
    loop with the hash constructor bound locally — the shape the batched
    client lookup path (:meth:`SafeBrowsingClient.check_urls`) feeds with the
    deduplicated decompositions of a page-load batch.
    """
    sha256 = hashlib.sha256
    return [
        FullHash(sha256(
            expression.encode("utf-8") if isinstance(expression, str) else expression
        ).digest())
        for expression in expressions
    ]


def prefixes_of(expressions: Sequence[str | bytes],
                bits: int = DEFAULT_PREFIX_BITS) -> list[Prefix]:
    """Hash-and-truncate a whole batch of canonical expressions.

    Returns one ``bits``-bit prefix per expression, in input order.  This is
    the batched counterpart of :func:`url_prefix`; the two agree exactly::

        prefixes_of(batch, bits) == [url_prefix(e, bits) for e in batch]
    """
    nbytes = bits // 8
    sha256 = hashlib.sha256
    return [
        Prefix(sha256(
            expression.encode("utf-8") if isinstance(expression, str) else expression
        ).digest()[:nbytes], bits)
        for expression in expressions
    ]


def url_prefix(expression: str | bytes, bits: int = DEFAULT_PREFIX_BITS) -> Prefix:
    """Hash-and-truncate a canonical URL expression.

    This is the operation at the heart of the paper: the composition of
    SHA-256 and truncation to ``bits`` bits.  The paper's privacy analysis
    studies exactly how much uncertainty this composition leaves to the
    provider that receives the resulting prefix.
    """
    return truncate_digest(sha256_digest(expression), bits)
