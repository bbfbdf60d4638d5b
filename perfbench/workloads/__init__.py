"""The benchmark's workloads, by name.  Each module records why it
exists, the layers it should stress and the layers it should bypass."""

from perfbench.workloads import ingest_write, serve_mixed, tql_scan, train_loader

WORKLOADS = {
    module.NAME: module
    for module in (train_loader, tql_scan, ingest_write, serve_mixed)
}
