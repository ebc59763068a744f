"""Whether this process may run on two CPUs at once: the one rule for the CLI's fork and the kernels' split.

Where it holds, a table of more than one block forks one formatter child,
and each kernel call on a large array starts one thread for the array's
first half, joined before the call returns.

Two CPUs are usable where the affinity mask (``os.sched_getaffinity``,
Linux only; elsewhere one CPU) and the cgroup CPU quota both allow two.
The quota is the smallest that the process's group or any of its ancestors
up to the hierarchy's mount root sets, in cgroup v2's ``cpu.max`` or v1's
``cpu.cfs_quota_us`` over ``cpu.cfs_period_us``; none where no file can be
read.  :func:`two_cpus` decides once per process, and a forked child
decides again: reading the quota takes tens of microseconds, and the
kernels ask once per large array.
"""

from __future__ import annotations

import os
import re

# this process's decision, None until two_cpus() first makes it
_decision = None


def _cgroup_dirs(mounts, v2, path):
    """The directories of the group at ``path`` and of its ancestors up to the mount's root, the group first.

    The hierarchy is v2's where ``v2``, else the v1 one with the cpu
    controller.  ``mounts`` are the lines of a mountinfo file.  A mount
    shows its hierarchy from the mount's root on (in a container without a
    cgroup namespace, the group that the container was started in), so
    ``path`` is taken relative to that root; a group outside it is not
    shown there.
    """
    for line in mounts:
        fields = line.split()
        fstype, *_, options = fields[fields.index("-") + 1:]
        if fstype != ("cgroup2" if v2 else "cgroup") or not v2 and "cpu" not in options.split(","):
            continue
        # mountinfo writes a space, tab, newline or backslash as \ooo
        root, point = (re.sub(r"\\([0-7]{3})", lambda m: chr(int(m[1], 8)), f) for f in fields[3:5])
        rel = os.path.relpath(path, root)
        if rel.split(os.sep)[0] != os.pardir:
            parts = [] if rel == os.curdir else rel.split(os.sep)
            return [os.path.join(point, *parts[:depth]) for depth in range(len(parts), -1, -1)]
    raise FileNotFoundError(f"no mount shows cgroup {path}")


def _group_quota(group, v2):
    """The CPUs that the quota set on the group directory ``group`` allows: None for no quota."""
    if v2:
        with open(os.path.join(group, "cpu.max")) as f:
            quota, period = f.read().split()
    else:
        with open(os.path.join(group, "cpu.cfs_quota_us")) as f, \
                open(os.path.join(group, "cpu.cfs_period_us")) as g:
            quota, period = f.read().strip(), g.read().strip()
    return None if quota in ("max", "-1") else int(quota) / int(period)


def _cpu_quota(cgroup="/proc/self/cgroup", mountinfo="/proc/self/mountinfo"):
    """The CPUs that this process's cgroup quotas allow, or None: no quota, or none that can be read.

    The group is the one that ``cgroup`` names, found where ``mountinfo``
    mounts its hierarchy; the result is the smallest quota over it and its
    ancestors up to the mount's root.  cgroup v2 keeps the quota in its
    ``cpu.max`` ("max" or "QUOTA PERIOD"), v1 in ``cpu.cfs_quota_us`` (-1
    for none) over ``cpu.cfs_period_us``.
    """
    try:
        with open(cgroup) as f, open(mountinfo) as g:
            lines, mounts = f.read().splitlines(), g.read().splitlines()
    except OSError:
        return None
    quotas = []
    for line in lines:
        try:
            _, controllers, path = line.split(":", 2)
            if controllers and "cpu" not in controllers.split(","):
                continue
            groups = _cgroup_dirs(mounts, not controllers, path)
        except (OSError, ValueError):
            continue
        for group in groups:
            try:
                quotas.append(_group_quota(group, not controllers))
            except (OSError, ValueError, ZeroDivisionError):
                continue
    return min((q for q in quotas if q is not None), default=None)


def _two_cpus() -> bool:
    """Whether both this process's affinity mask and its cgroup quota let it run on two CPUs at once."""
    # sched_getaffinity exists on Linux only
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return False
    quota = _cpu_quota()
    return quota is None or quota >= 2


def two_cpus() -> bool:
    """:func:`_two_cpus`, decided on the first call in this process."""
    global _decision
    if _decision is None:
        _decision = _two_cpus()
    return _decision


def _forget() -> None:
    global _decision
    _decision = None


# a forked child may run under another mask or group, and decides again
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)
