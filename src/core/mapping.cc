#include "core/mapping.h"

#include "support/logging.h"

namespace beehive::core {

void
MappingTable::add(vm::Ref server, vm::Ref remote)
{
    server_to_remote_[server] = remote;
    remote_to_server_[remote] = server;
}

vm::Ref
MappingTable::toRemote(vm::Ref server) const
{
    auto it = server_to_remote_.find(server);
    return it == server_to_remote_.end() ? vm::kNullRef : it->second;
}

vm::Ref
MappingTable::toServer(vm::Ref remote) const
{
    auto it = remote_to_server_.find(remote);
    return it == remote_to_server_.end() ? vm::kNullRef : it->second;
}

void
MappingTable::forEachServerRef(gc::SemiSpaceCollector::RefVisitor v)
{
    // Keys are the server addresses; visiting mutates them, so
    // rebuild both maps afterwards via reindex().
    std::vector<std::pair<vm::Ref, vm::Ref>> entries(
        server_to_remote_.begin(), server_to_remote_.end());
    bool changed = false;
    for (auto &[server, remote] : entries) {
        vm::Ref before = server;
        v(server);
        changed = changed || server != before;
    }
    if (changed) {
        server_to_remote_.clear();
        remote_to_server_.clear();
        for (auto &[server, remote] : entries)
            add(server, remote);
    }
}

void
MappingTable::reindex()
{
    remote_to_server_.clear();
    for (const auto &[server, remote] : server_to_remote_)
        remote_to_server_[remote] = server;
}

} // namespace beehive::core
