// lint-path: nvoverlay/fixture.cc
// The sanctioned shapes: master keys built through tenant::keyOf /
// tenant::tag, and pool mutations that pass the owning ASID.

void
stageVersion(Partition &part, Addr line, NvmModel &nvm, EpochWide e,
             tenant::Asid asid)
{
    part.master->insert(tenant::keyOf(line), nvm, e);
    Addr base = part.pool->allocLines(4, asid);
    part.pool->freeLines(base, 4, asid);
}
