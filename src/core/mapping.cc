#include "core/mapping.h"

#include <utility>
#include <vector>

namespace beehive::core {

void
MappingTable::forEachServerRef(gc::SemiSpaceCollector::RefVisitor v)
{
    // Keys are the server addresses and visiting may move them, so
    // visit a copy of the pairs and rebuild both directions from it.
    std::vector<std::pair<vm::Ref, vm::Ref>> entries;
    entries.reserve(size());
    server_to_remote_.forEach([&](vm::Ref server, vm::Ref remote) {
        entries.emplace_back(server, remote);
    });
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

} // namespace beehive::core
