"""The label rows several slots of one cover hold.

The product build gives every child a parent outranks the parent's one
``Lin(p) + [p]`` row (and distance row); such a row must count as owned
by none of its slots, so that whoever writes one of them copies it
first.
"""


def shared_slots(cover):
    """For every row object two or more slots of ``cover`` hold, the
    ``(table name, slot)`` pairs that hold it."""
    holders = {}
    for name in cover._TABLE_NAMES:
        for x, row in enumerate(getattr(cover, name)):
            if row is not None:
                holders.setdefault(id(row), []).append((name, x))
    return [slots for slots in holders.values() if len(slots) > 1]


def assert_shared_rows_unowned(cover):
    """Every row object held by two or more slots is owned by none of
    them, so the next in-place write to any of them copies it."""
    for slots in shared_slots(cover):
        assert cover._cow is not None, slots
        for name, x in slots:
            assert x not in cover._cow[id(getattr(cover, name))], (name, x)


def lin_groups(cover):
    """The slots sharing each shared ``Lin`` row, ascending, largest
    group first."""
    groups = [
        sorted(x for _, x in slots)
        for slots in shared_slots(cover) if slots[0][0] == "_lin"
    ]
    return sorted(groups, key=lambda g: (-len(g), g))
