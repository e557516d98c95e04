/**
 * @file
 * Side-effect-free overlay for shadow execution.
 *
 * During shadow execution (Section 3.4) the FaaS function must run a
 * duplicated request "with no side effects on observable states".
 * External state lives in the database, so the proxy intercepts all
 * operations from a shadow function and applies writes to this
 * overlay instead of the store. Reads are read-your-writes: they see
 * the overlay first and fall through to the store, so the shadow
 * request executes the same code paths a real request would.
 */

#ifndef BEEHIVE_PROXY_SHADOW_SESSION_H
#define BEEHIVE_PROXY_SHADOW_SESSION_H

#include <map>
#include <set>
#include <string>

#include "db/record_store.h"

namespace beehive::proxy {

/** Buffered writes of one shadow execution. */
class ShadowSession
{
  public:
    /**
     * Execute @p req against the overlay backed by @p store.
     * The store itself is never mutated.
     */
    db::Response apply(const db::RecordStore &store,
                       const db::Request &req);

    /** Number of writes intercepted so far. */
    uint64_t interceptedWrites() const { return writes_; }

    /** True if the overlay holds no changes. */
    bool empty() const
    {
        return overlay_.empty() && deleted_.empty();
    }

  private:
    using Key = std::pair<std::string, int64_t>;

    /** Rows written by the shadow, as the records the store would
     * keep; never also in deleted_. */
    std::map<Key, db::RecordRef> overlay_;
    std::set<Key> deleted_;
    uint64_t writes_ = 0;
};

} // namespace beehive::proxy

#endif // BEEHIVE_PROXY_SHADOW_SESSION_H
