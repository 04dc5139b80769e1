// lint-path: nvoverlay/fixture.cc
// An untagged master-table mutation: nothing in the argument list
// carries the tenant's ASID, so the line would be invisible to
// per-tenant quota and write-amp accounting.

void
stageVersion(Partition &part, Addr line, NvmModel &nvm, EpochWide e)
{
    part.master->insert(line, nvm, e);
}
