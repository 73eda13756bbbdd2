"""Ray session lifetime, memory sampling and ``ds.stats()`` parsing."""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import statistics
import threading
import time
from typing import Dict, List, Optional

import pyarrow.parquet as pq

from . import inputs

# Ray's unix sockets live under its temp dir; AF_UNIX paths stop at 107
# bytes and the session/socket suffix takes up to 64 of them. A checkout
# at a longer path leaves Ray on its default temp dir.
_MAX_RAY_TEMP_DIR = 40
_OBJECT_STORE_BYTES = 256 * 1024 * 1024


def session_cpus() -> int:
    """The sizing rule: Ray ``num_cpus`` = ``nproc`` (which honours
    ``OMP_NUM_THREADS``)."""
    done = subprocess.run(['nproc'], capture_output=True, text=True, check=True)
    return int(done.stdout)


def _children() -> Dict[int, List[int]]:
    kids: Dict[int, List[int]] = {}
    for name in os.listdir('/proc'):
        if not name.isdigit():
            continue
        try:
            with open(f'/proc/{name}/stat') as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(')', 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def process_tree(root: int) -> List[int]:
    kids = _children()
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, []))
    return out


def _rss_kb(pid: int) -> int:
    try:
        with open(f'/proc/{pid}/status') as fh:
            for line in fh:
                if line.startswith('VmRSS:'):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class RssSampler:
    """Peak RSS of the driver plus every process it started (Ray's GCS,
    raylet and workers): the largest sum of their resident sets, sampled
    from a thread every ``interval`` seconds."""

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> 'RssSampler':
        self._thread.start()
        return self

    def _sample(self) -> None:
        total = sum(_rss_kb(p) for p in process_tree(os.getpid()))
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(self.interval)

    def stop(self) -> float:
        """Stop sampling; returns the peak in MiB."""
        self._stop.set()
        self._thread.join()
        self._sample()
        return self.peak_kb / 1024.0


class RaySession:
    """One local Ray session sized to the box, started with the warm-up
    ingest that loads the engine into the workers."""

    def __init__(self, root: str, work: str, warmup_path: str) -> None:
        self.root = root
        self.work = work
        self.warmup_path = warmup_path
        self.pids: set = set()

    def _temp_dir(self) -> Optional[str]:
        # A short name at the checkout root leaves the most room for the
        # checkout's own path.
        path = os.path.join(self.root, '.pbray')
        return path if len(path) <= _MAX_RAY_TEMP_DIR else None

    def start(self) -> float:
        """Start the session and run the warm-up ingest; returns seconds."""
        import ray

        from filters_ray.pipelines.cdc import CDCPipeline

        # Workers import the engine from the checkout.
        os.environ['PYTHONPATH'] = os.pathsep.join(
            p for p in (self.root, os.environ.get('PYTHONPATH')) if p)
        lake = os.path.join(self.work, 'warmup-lake')
        t0 = time.perf_counter()
        ray.init(
            address='local',
            num_cpus=session_cpus(),
            include_dashboard=False,
            logging_level='ERROR',
            log_to_driver=False,
            object_store_memory=_OBJECT_STORE_BYTES,
            _temp_dir=self._temp_dir(),
        )
        import logging

        from ray.data import DataContext

        logging.getLogger('ray.data').setLevel(logging.ERROR)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        CDCPipeline(lake, num_partitions=inputs.TAIL_PARTITIONS).run(
            self.warmup_path)
        elapsed = time.perf_counter() - t0
        self.pids.update(process_tree(os.getpid()))
        remove_tree(lake)
        return elapsed

    def stop(self) -> None:
        """Shut Ray down, wait until every process it started is gone and
        drop its session logs."""
        import ray

        self.pids.update(process_tree(os.getpid()))
        ray.shutdown()
        self.pids.discard(os.getpid())
        deadline = time.monotonic() + 20
        while True:
            alive = [p for p in self.pids if _alive(p)]
            if not alive:
                break
            if time.monotonic() > deadline:
                for pid in alive:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                deadline = time.monotonic() + 5
            time.sleep(0.05)
        if self._temp_dir() is not None:
            remove_tree(self._temp_dir())  # session logs


def _alive(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass
    try:
        with open(f'/proc/{pid}/stat') as fh:
            return fh.read().rsplit(')', 1)[1].split()[0] != 'Z'
    except OSError:
        return False


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def dir_stats(path: str) -> Dict[str, int]:
    """Files and bytes under ``path`` (lock files excluded)."""
    files = nbytes = 0
    for dirpath, _, names in os.walk(path):
        for name in names:
            if name.startswith('.'):
                continue  # lock files
            files += 1
            nbytes += os.path.getsize(os.path.join(dirpath, name))
    return {'files': files, 'bytes': nbytes}


def dlq_rows(lake: str) -> int:
    total = 0
    for dirpath, _, names in os.walk(os.path.join(lake, '_dlq')):
        for name in names:
            if name.endswith('.parquet'):
                total += pq.read_metadata(os.path.join(dirpath, name)).num_rows
    return total


# -- ds.stats() parsing ------------------------------------------------------

_UNITS = {'us': 1e-6, 'ms': 1e-3, 's': 1.0}
_TOTAL = re.compile(
    r'\* Remote (wall|cpu) time: .*?([0-9.]+)(us|ms|s) total')


def _operator_role(header: str) -> Optional[str]:
    if 'upsert_partition' in header:
        return 'upsert'
    if 'validate' in header:
        return 'validate'
    if any(k in header for k in ('Sort', 'Shuffle', 'Aggregate', 'Repartition')):
        return 'exchange'
    return None


def parse_stats(text: Optional[str]) -> Dict[str, float]:
    """Per-role remote wall and CPU seconds from a ``Dataset.stats()``
    string. Roles: validate, exchange (the sort/shuffle operator and its
    sub-operators) and upsert. Suboperator lines inherit their parent's
    role."""
    out = {f'{r}.{k}': 0.0 for r in ('validate', 'exchange', 'upsert')
           for k in ('wall_s', 'cpu_s')}
    if not text:
        return out
    role = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith('Operator '):
            role = _operator_role(stripped.split(':')[0])
            continue
        if stripped.startswith('Dataset iterator') or stripped.startswith(
                'Dataset throughput'):
            role = None
            continue
        m = _TOTAL.search(stripped)
        if m and role is not None:
            key = f'{role}.{m.group(1)}_s'
            out[key] += float(m.group(2)) * _UNITS[m.group(3)]
    return out


def merge_stats(parts: List[Dict[str, float]]) -> Dict[str, float]:
    keys = parts[0].keys() if parts else []
    return {k: sum(p[k] for p in parts) for k in keys}


def median(values: List[float]) -> float:
    return statistics.median(values)
