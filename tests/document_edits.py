"""Break a document by editing copies of it, for the read-error tables."""

import copy

#: The value that deletes the field at its path.
DELETE = object()


def mutated(doc, changes):
    """A copy of ``doc`` with each ``(path, value)`` of ``changes`` applied
    in order: the field at ``path`` set to ``value``, or deleted for
    ``DELETE``; an empty path replaces the whole document."""
    for path, value in changes:
        if not path:
            doc = value
            continue
        doc = copy.deepcopy(doc)
        *head, last = path
        target = doc
        for key in head:
            target = target[key]
        if value is DELETE:
            del target[last]
        else:
            target[last] = value
    return doc
