/**
 * @file
 * The external database service.
 *
 * The paper's web applications keep their persistent state in MySQL
 * behind connection pools; a pybbs comment request performs more
 * than 80 rounds of communication with the database (Section 3.3).
 * This record store reproduces that interaction shape: stateful
 * connections carry point reads, scans, and writes against named
 * tables, each with a modelled service time and a result size that
 * feeds the network transfer model.
 */

#ifndef BEEHIVE_DB_RECORD_STORE_H
#define BEEHIVE_DB_RECORD_STORE_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/sim_time.h"

namespace beehive::db {

/** A row as written by load() or a Put: a primary key plus string
 * fields. The store keeps it as a Record. */
struct Row
{
    int64_t id = 0;
    std::map<std::string, std::string> fields;

    /** Approximate wire size of this row in bytes. */
    uint64_t wireSize() const;
};

/** One field of a row as views: key, value. */
using Field = std::pair<std::string_view, std::string_view>;

class Record;

/** Shared handle to a stored row. */
using RecordRef = std::shared_ptr<const Record>;

/**
 * One stored row, built once when it is written and immutable after.
 *
 * It holds the row in the form every reader wants: the wire bytes
 * "<id>|k1=v1|k2=v2..." in field-key order (what the VM receives)
 * and the modelled wire size (what the network model charges).
 * Tables, responses and shadow overlays share records by RecordRef,
 * so a read copies handles, never rows.
 */
class Record
{
  public:
    /** Encode @p fields, sorted by key, under @p id. */
    Record(int64_t id, std::span<const Field> fields);
    /** Encode @p row's fields under @p id (row.id is not read). */
    Record(int64_t id, const Row &row);

    /** A shared immutable record of @p fields under @p id. */
    static RecordRef make(int64_t id, std::span<const Field> fields)
    {
        return std::make_shared<const Record>(id, fields);
    }
    /** A shared immutable record of @p row's fields under @p id. */
    static RecordRef make(int64_t id, const Row &row)
    {
        return std::make_shared<const Record>(id, row);
    }

    int64_t id() const { return id_; }
    /** The row as the VM sees it: "<id>|k1=v1|...". */
    std::string_view wire() const { return wire_; }
    /** Row::wireSize() of the row it was built from. */
    uint64_t wireSize() const { return wire_size_; }

  private:
    /** The one encoder: @p fields are (key, value) pairs in key order. */
    template <typename Fields>
    void encode(const Fields &fields);

    int64_t id_;
    std::string wire_;
    uint64_t wire_size_ = 16; // key + framing
};

/** Database operation kinds. */
enum class OpKind { Get, Put, Scan, Count, Delete };

/** A request as it appears on a database connection. */
struct Request
{
    Request() = default;

    /** Convenience constructor for point operations. */
    Request(OpKind kind, std::string table, int64_t key = 0)
        : kind(kind), table(std::move(table)), key(key)
    {}

    OpKind kind = OpKind::Get;
    std::string table;
    int64_t key = 0;         //!< Get/Put/Delete target.
    int64_t offset = 0;      //!< Scan start offset.
    int64_t limit = 0;       //!< Scan row limit.
    Row row;                 //!< Put payload.

    uint64_t wireSize() const;

    /**
     * The positions [begin, end) this Scan returns from @p rows
     * id-ordered rows: a negative offset starts at 0, a limit of 0
     * or less returns none.
     */
    std::pair<std::size_t, std::size_t> scanWindow(std::size_t rows) const;
};

/** The response to a Request. */
struct Response
{
    bool ok = false;
    /** Connection reset before the operation executed (fault
     * injection): nothing was applied, the caller must reconnect
     * and may safely re-issue the request. */
    bool reset = false;
    /** Get/Scan results: the stored records themselves. A later
     * write replaces the table's handle, never the record, so these
     * stay as they were read. */
    std::vector<RecordRef> rows;
    int64_t count = 0;       //!< Count result / rows affected.
    /** Connection resets absorbed while serving this request
     * (reconnect cost accounting; filled by the proxy layer). */
    uint32_t resets = 0;

    uint64_t wireSize() const;
};

/**
 * In-memory multi-table record store with per-op service times.
 *
 * Mutating operations may be redirected into an overlay (see
 * proxy::ShadowSession) by the proxy; the store itself is oblivious
 * to shadow execution.
 */
class RecordStore
{
  public:
    /** Create an empty table (idempotent). */
    void createTable(const std::string &name);

    /** True if the table exists. */
    bool hasTable(const std::string &name) const;

    /** Number of rows in a table (0 for missing tables). */
    std::size_t tableSize(const std::string &name) const;

    /**
     * Execute a request against the store.
     *
     * @param req The operation.
     * @return The response; ok=false on missing table/row.
     */
    Response execute(const Request &req);

    /**
     * Execute a read-only request (Get/Scan/Count) without mutating
     * the store. panic()s on write requests.
     */
    Response read(const Request &req) const;

    /**
     * Modelled service time for a request (CPU + storage work on
     * the database machine, excluding network).
     */
    sim::SimTime serviceTime(const Request &req) const;

    /**
     * Bulk-load helper used by workload setup: store @p records in
     * @p table (created if missing). A record whose id is already
     * stored replaces it, so on a repeated id the later one wins, as
     * a Put would.
     */
    void load(const std::string &table, std::vector<RecordRef> records);

    /**
     * Install a connection-fault hook consulted before each
     * execute(): returning true resets the connection *before* the
     * operation runs (no partial application; the response carries
     * reset=true, ok=false). Used by the chaos plane; nullptr (the
     * default) keeps execute() fault-free.
     */
    void setFaultHook(std::function<bool(const Request &)> hook)
    {
        fault_hook_ = std::move(hook);
    }

    /**
     * Install an observer invoked after every *successfully applied*
     * write (Put/Delete). Test instrumentation: the exactly-once
     * suite counts applied writes per key through it.
     */
    void setWriteObserver(std::function<void(const Request &)> obs)
    {
        write_observer_ = std::move(obs);
    }

    /** Connection resets injected so far. */
    uint64_t resets() const { return resets_; }

  private:
    /** Records sorted by id, one per row. */
    using Table = std::vector<RecordRef>;

    std::map<std::string, Table> tables_;
    std::function<bool(const Request &)> fault_hook_;
    std::function<void(const Request &)> write_observer_;
    uint64_t resets_ = 0;
};

} // namespace beehive::db

#endif // BEEHIVE_DB_RECORD_STORE_H
