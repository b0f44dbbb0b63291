"""Fixtures shared across the test tree."""

import os
import threading

import pytest


@pytest.fixture()
def http_server():
    """``start(service, port=0)`` binds the service's HTTP front and
    serves it from a daemon thread; every server started is shut down
    and closed after the test.  The short poll interval keeps each
    shutdown from waiting out serve_forever's default 0.5 s poll."""
    from repro.serve import make_server

    servers = []

    def start(service, port=0):
        server = make_server(service, port=port)
        servers.append(server)
        threading.Thread(target=server.serve_forever,
                         kwargs={"poll_interval": 0.05},
                         daemon=True).start()
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture()
def artifact_files():
    """``files(data_root, tenant="default")``: ``{path: (inode,
    mtime)}`` of a tenant's persisted artifacts.  A store replaces its
    file, so a repeat submission that compiled anything again changes
    the map even when it wrote the same keys."""

    def files(data_root, tenant="default"):
        root = os.path.join(str(data_root), "artifacts", "ns", tenant)
        found = {}
        for folder, _dirs, names in os.walk(root):
            for name in names:
                path = os.path.join(folder, name)
                stat = os.stat(path)
                found[path] = (stat.st_ino, stat.st_mtime_ns)
        return found

    return files


@pytest.fixture()
def closed_files(monkeypatch):
    """``{batch_id: lines}``: each batch's journal file as it stood
    just before its close deleted it — what a crash right before the
    close would have left.  A batch closed twice keeps the later
    copy."""
    from repro.serve import BatchJournal

    kept = {}
    end = BatchJournal.end

    def keeping(journal, tenant, batch_id):
        path = journal.batch_path(tenant, batch_id)
        if os.path.exists(path):
            with open(path) as handle:
                kept[batch_id] = handle.read().splitlines()
        end(journal, tenant, batch_id)

    monkeypatch.setattr(BatchJournal, "end", keeping)
    return kept


@pytest.fixture()
def offered_results(monkeypatch):
    """``Counter`` of job ids: how many results were offered to
    :meth:`Batch.add_result` for each, the duplicates it drops
    included — a job that ran and delivered its row twice counts 2."""
    from collections import Counter

    from repro.serve.service import Batch

    offered = Counter()
    lock = threading.Lock()
    add = Batch.add_result

    def counting(batch, result, on_complete=None):
        with lock:
            offered[result.job_id] += 1
        return add(batch, result, on_complete)

    monkeypatch.setattr(Batch, "add_result", counting)
    return offered


@pytest.fixture()
def journal_files():
    """``files(data_root)``: every file under ``<data_root>/journal``,
    relative to it and sorted (``<tenant>/<batch_id>.jsonl`` per open
    batch)."""

    def files(data_root):
        root = os.path.join(str(data_root), "journal")
        return sorted(
            os.path.relpath(os.path.join(folder, name), root)
            for folder, _dirs, names in os.walk(root) for name in names
        )

    return files
