/**
 * @file
 * Per-function address mapping tables (paper Section 4.1, Figure 5).
 *
 * When a closure is copied to a FaaS instance, the server records a
 * one-to-one mapping between each offloaded object's server address
 * and its address on the function. The table serves three purposes:
 *
 *   - translating addresses during monitor synchronization
 *     (Figure 6's translate step);
 *   - keeping shared objects alive on the server: the table's
 *     server-side refs join the GC root set, and the collector
 *     updates them when objects move (Section 4.4);
 *   - detecting whether an object has already been shipped to a
 *     function so fetches are idempotent.
 */

#ifndef BEEHIVE_CORE_MAPPING_H
#define BEEHIVE_CORE_MAPPING_H

#include <cstdint>

#include "gc/collector.h"
#include "vm/ref_table.h"
#include "vm/value.h"

namespace beehive::core {

/** One function instance's server<->function address mapping. */
class MappingTable
{
  public:
    /** Record that server object @p server lives at @p remote. */
    void
    add(vm::Ref server, vm::Ref remote)
    {
        server_to_remote_.put(server, remote);
        remote_to_server_.put(remote, server);
    }

    /** Function-side address of a server object (kNullRef if none). */
    vm::Ref toRemote(vm::Ref server) const
    {
        return server_to_remote_.find(server);
    }

    /** Server-side address for a function address (kNullRef if none). */
    vm::Ref toServer(vm::Ref remote) const
    {
        return remote_to_server_.find(remote);
    }

    /** Make room for @p more entries beyond the current ones. */
    void
    reserve(std::size_t more)
    {
        server_to_remote_.reserve(size() + more);
        remote_to_server_.reserve(size() + more);
    }

    std::size_t size() const { return server_to_remote_.size(); }

    /** Approximate memory footprint (Section 5.6 reports ~100s KB). */
    std::size_t footprintBytes() const
    {
        return size() * 2 * (sizeof(vm::Ref) * 2 + 16);
    }

    /**
     * GC integration: visit all server-side refs, in slot order; the
     * collector updates them in place when objects move, after which
     * both directions are rebuilt.
     */
    void forEachServerRef(gc::SemiSpaceCollector::RefVisitor v);

  private:
    vm::RefTable server_to_remote_;
    vm::RefTable remote_to_server_;
};

} // namespace beehive::core

#endif // BEEHIVE_CORE_MAPPING_H
