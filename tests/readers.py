"""Which token methods of the text readers ran: the readers match whole
terms and statement heads with patterns, and read one token at a time only
to word and place the error of text a pattern rejected."""
from contextlib import contextmanager
from unittest import mock

from framecalc import manifold_format
from framecalc.manifold_format import _Scanner
from framecalc.scalars import Scanner

TOKEN_METHODS = {
    Scanner: ("peek", "peek_word", "word", "keyword", "char", "signs",
               "literal", "integer", "rational", "monomial",
               "signed_rational", "_scalar_by_tokens"),
    _Scanner: ("basis_index", "index_1based"),
}


@contextmanager
def token_reads():
    """Yield a list that collects the name of each token method called
    inside the block."""
    calls: list = []

    def recording(name, method):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return method(*args, **kwargs)
        return wrapper

    with mock.patch.object(manifold_format, "_vector_by_tokens",
                           recording("_vector_by_tokens",
                                     manifold_format._vector_by_tokens)):
        patches = [mock.patch.object(cls, name, recording(name, getattr(cls, name)))
                   for cls, names in TOKEN_METHODS.items() for name in names]
        for p in patches:
            p.start()
        try:
            yield calls
        finally:
            for p in reversed(patches):
                p.stop()
