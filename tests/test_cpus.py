"""The CPU rule that the CLI's fork and the kernels' split share: affinity mask and cgroup quotas."""

import os

import pytest

from chebbound import _cpus
from conftest import _no_child_is_left, _workers


# mountinfo lines, "{}" standing for the directory that the test's cgroup
# file system is in: v2 mounted there or below it, v1 controllers below it
V2 = "30 24 0:26 / {} rw,nosuid - cgroup2 cgroup2 rw\n"
UNIFIED = "42 32 0:38 / {}/unified rw,relatime - cgroup2 cgroup2 rw\n"
CPU = "33 32 0:29 / {}/cpu rw,relatime - cgroup cgroup rw,cpu\n"
CPU_CPUACCT = "33 32 0:29 / {}/cpu,cpuacct rw,relatime - cgroup cgroup rw,cpu,cpuacct\n"
MEMORY = "36 32 0:32 / {}/memory rw,relatime - cgroup cgroup rw,memory\n"
# a container without a cgroup namespace: its own group is the mount's root
DOCKER = "33 32 0:29 /docker/abc {}/cpu,cpuacct ro,relatime master:14 - cgroup cgroup rw,cpu,cpuacct\n"


def _cfs(group, quota, period="100000\n"):
    return {f"{group}/cpu.cfs_quota_us": quota, f"{group}/cpu.cfs_period_us": period}


class TestCpuQuota:
    """The quota read from the cgroup that a /proc/self/cgroup file names, where a mountinfo file mounts it."""

    def _quota(self, tmp_path, cgroup, mountinfo, files):
        (tmp_path / "cgroup").write_text(cgroup)
        (tmp_path / "mountinfo").write_text(mountinfo.replace("{}", str(tmp_path).replace(" ", "\\040")))
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(text)
        return _cpus._cpu_quota(str(tmp_path / "cgroup"), str(tmp_path / "mountinfo"))

    @pytest.mark.parametrize("cgroup, mountinfo, files, quota", (
        # v2
        ("0::/job\n", V2, {"job/cpu.max": "150000 100000\n"}, 1.5),
        ("0::/\n", V2, {"cpu.max": "max 100000\n"}, None),
        # v1, with the controllers mounted together or alone
        ("5:memory:/x\n4:cpu,cpuacct:/job\n", MEMORY + CPU_CPUACCT, _cfs("cpu,cpuacct/job", "200000\n"), 2.0),
        ("1:cpu:/\n", CPU, _cfs("cpu", "-1\n"), None),
        # hybrid: the v2 group has no cpu.max, the v1 cpu group has the quota
        ("0::/\n1:cpu:/\n", UNIFIED + CPU, _cfs("cpu", "50000\n"), 0.5),
        # without a cgroup namespace the group's path lies below the mount's
        # root: the container's own group, one inside it, and one outside it
        ("4:cpu,cpuacct:/docker/abc\n", DOCKER, _cfs("cpu,cpuacct", "100000\n"), 1.0),
        ("4:cpu,cpuacct:/docker/abc/job\n", DOCKER, _cfs("cpu,cpuacct/job", "50000\n"), 0.5),
        ("4:cpu,cpuacct:/docker/xyz\n", DOCKER, _cfs("cpu,cpuacct", "100000\n"), None),
        ("0::/system.slice/x.scope\n", V2.replace(" / ", " /system.slice/x.scope "),
         {"cpu.max": "200000 100000\n"}, 2.0),
        # a mount point with a space in it, which mountinfo writes as \040
        ("1:cpu:/\n", CPU.replace("/cpu ", "/cpu\\040dir "), _cfs("cpu dir", "300000\n"), 3.0),
        # missing or unreadable: the affinity mask alone decides
        ("0::/job\n", V2, {}, None),
        ("1:cpu:/\n", "", _cfs("cpu", "50000\n"), None),
        ("1:cpu:/\n", CPU, {"cpu/cpu.cfs_quota_us": "50000\n"}, None),
        ("0::/\n", V2, {"cpu.max": "lots\n"}, None),
        ("0::/\n", V2, {"cpu.max": "100000 0\n"}, None),
        ("0::/\n", "garbled\n", {"cpu.max": "100000 100000\n"}, None),
        ("garbled\n", V2, {}, None),
        # a quota set on the parent group only, or on both: the smallest holds
        ("0::/job/task\n", V2, {"job/cpu.max": "100000 100000\n", "job/task/cpu.max": "max 100000\n"}, 1.0),
        ("1:cpu:/job/task\n", CPU, {**_cfs("cpu/job", "50000\n"), **_cfs("cpu/job/task", "-1\n")}, 0.5),
        ("0::/job/task\n", V2, {"job/cpu.max": "300000 100000\n", "job/task/cpu.max": "150000 100000\n"}, 1.5),
        ("1:cpu:/job/task\n", CPU, {**_cfs("cpu/job", "150000\n"), **_cfs("cpu/job/task", "400000\n")}, 1.5),
        # the walk ends at the mount's root, here the container's own group
        ("4:cpu,cpuacct:/docker/abc/job\n", DOCKER, {**_cfs("cpu,cpuacct", "50000\n"),
                                                     **_cfs("cpu,cpuacct/job", "-1\n")}, 0.5),
    ))
    def test_v1_and_v2(self, tmp_path, cgroup, mountinfo, files, quota):
        assert self._quota(tmp_path, cgroup, mountinfo, files) == quota

    def test_no_cgroup_or_mountinfo_file_is_no_quota(self, tmp_path):
        assert self._quota(tmp_path, "0::/\n", V2, {"cpu.max": "100000 100000\n"}) == 1.0
        assert _cpus._cpu_quota(str(tmp_path / "absent"), str(tmp_path / "mountinfo")) is None
        assert _cpus._cpu_quota(str(tmp_path / "cgroup"), str(tmp_path / "absent")) is None

    @pytest.mark.parametrize("quota, forks", ((None, True), (4.0, True), (2.0, True), (1.5, False), (1.0, False)))
    def test_a_sweep_forks_only_where_the_quota_allows_two_cpus(self, run_cli, monkeypatch, quota, forks):
        _workers(monkeypatch, 4, quota)
        fork, pids = os.fork, []

        def counted_fork():
            pids.append(fork())
            return pids[-1]

        monkeypatch.setattr(os, "fork", counted_fork)
        argv = ["sweep", "--n", "2", "--x-min=-4", "--x-max=-2", "--points", "1025"]
        code, out, err = run_cli(argv)
        assert (code, err, len(pids)) == (0, "", int(forks))
        _workers(monkeypatch, 1)
        assert run_cli(argv) == (0, out, "")
        _no_child_is_left()


def test_the_decision_is_made_once_per_process(monkeypatch):
    _workers(monkeypatch, 4)
    calls = []
    monkeypatch.setattr(_cpus, "_cpu_quota", lambda: calls.append(1))
    assert [_cpus.two_cpus() for _ in range(3)] == [True] * 3 and len(calls) == 1
    # one CPU in the mask: the quota is not read
    _workers(monkeypatch, 1)
    assert not _cpus.two_cpus() and len(calls) == 1
