#include "db/record_store.h"

#include <algorithm>
#include <charconv>

#include "support/logging.h"

namespace beehive::db {

namespace {

/** First record of @p table whose id is not below @p id. */
std::vector<RecordRef>::iterator
lowerBound(std::vector<RecordRef> &table, int64_t id)
{
    return std::lower_bound(
        table.begin(), table.end(), id,
        [](const RecordRef &r, int64_t key) { return r->id() < key; });
}

/** Store @p rec in @p table, replacing the record with its id. */
void
upsert(std::vector<RecordRef> &table, RecordRef rec)
{
    auto it = lowerBound(table, rec->id());
    if (it != table.end() && (*it)->id() == rec->id())
        *it = std::move(rec);
    else
        table.insert(it, std::move(rec));
}

} // namespace

uint64_t
Row::wireSize() const
{
    uint64_t size = 16; // key + framing
    for (const auto &[k, v] : fields)
        size += k.size() + v.size() + 8;
    return size;
}

template <typename Fields>
void
Record::encode(const Fields &fields)
{
    char digits[24];
    char *end = std::to_chars(digits, digits + sizeof(digits), id_).ptr;
    std::size_t size = static_cast<std::size_t>(end - digits);
    for (const auto &[k, v] : fields) {
        size += 2 + k.size() + v.size();
        // Row::wireSize(): key + value + 8 per field.
        wire_size_ += k.size() + v.size() + 8;
    }
    wire_.reserve(size);
    wire_.append(digits, end);
    for (const auto &[k, v] : fields) {
        wire_ += '|';
        wire_ += k;
        wire_ += '=';
        wire_ += v;
    }
}

Record::Record(int64_t id, std::span<const Field> fields) : id_(id)
{
    for (std::size_t i = 1; i < fields.size(); ++i)
        bh_assert(fields[i - 1].first < fields[i].first,
                  "record fields must be sorted by key");
    encode(fields);
}

Record::Record(int64_t id, const Row &row) : id_(id)
{
    encode(row.fields);
}

uint64_t
Request::wireSize() const
{
    uint64_t size = 32 + table.size();
    if (kind == OpKind::Put)
        size += row.wireSize();
    return size;
}

std::pair<std::size_t, std::size_t>
Request::scanWindow(std::size_t rows) const
{
    std::size_t begin = std::min<std::size_t>(
        static_cast<std::size_t>(std::max<int64_t>(offset, 0)), rows);
    std::size_t n = std::min<std::size_t>(
        static_cast<std::size_t>(std::max<int64_t>(limit, 0)),
        rows - begin);
    return {begin, begin + n};
}

uint64_t
Response::wireSize() const
{
    uint64_t size = 16;
    for (const auto &r : rows)
        size += r->wireSize();
    return size;
}

void
RecordStore::createTable(const std::string &name)
{
    tables_.try_emplace(name);
}

bool
RecordStore::hasTable(const std::string &name) const
{
    return tables_.count(name) > 0;
}

std::size_t
RecordStore::tableSize(const std::string &name) const
{
    auto it = tables_.find(name);
    return it == tables_.end() ? 0 : it->second.size();
}

Response
RecordStore::read(const Request &req) const
{
    bh_assert(req.kind == OpKind::Get || req.kind == OpKind::Scan ||
                  req.kind == OpKind::Count,
              "read() requires a read-only request");
    // Reads never mutate, so delegating through a non-const self is
    // safe and avoids duplicating the dispatch.
    return const_cast<RecordStore *>(this)->execute(req);
}

Response
RecordStore::execute(const Request &req)
{
    Response resp;
    if (fault_hook_ && fault_hook_(req)) {
        // The connection dropped before the operation reached the
        // engine: nothing was applied, re-issuing is always safe.
        ++resets_;
        resp.reset = true;
        return resp;
    }
    auto tit = tables_.find(req.table);
    if (tit == tables_.end())
        return resp;
    Table &table = tit->second;

    switch (req.kind) {
      case OpKind::Get: {
        auto it = lowerBound(table, req.key);
        if (it == table.end() || (*it)->id() != req.key)
            return resp;
        resp.rows.push_back(*it);
        resp.ok = true;
        break;
      }
      case OpKind::Put: {
        // The stored row takes the request key as its id.
        upsert(table, Record::make(req.key, req.row));
        resp.count = 1;
        resp.ok = true;
        if (write_observer_)
            write_observer_(req);
        break;
      }
      case OpKind::Delete: {
        auto it = lowerBound(table, req.key);
        bool found = it != table.end() && (*it)->id() == req.key;
        if (found)
            table.erase(it);
        resp.count = found ? 1 : 0;
        resp.ok = true;
        if (write_observer_)
            write_observer_(req);
        break;
      }
      case OpKind::Scan: {
        auto [begin, end] = req.scanWindow(table.size());
        resp.rows.assign(table.begin() + begin, table.begin() + end);
        resp.ok = true;
        break;
      }
      case OpKind::Count: {
        resp.count = static_cast<int64_t>(table.size());
        resp.ok = true;
        break;
      }
    }
    return resp;
}

sim::SimTime
RecordStore::serviceTime(const Request &req) const
{
    // Calibrated to a well-provisioned MySQL on a large instance
    // (the paper uses m4.10xlarge so the DB is never the
    // bottleneck): point ops tens of microseconds, scans scale
    // with the number of rows returned.
    switch (req.kind) {
      case OpKind::Get:
      case OpKind::Delete:
        return sim::SimTime::usec(30);
      case OpKind::Put:
        return sim::SimTime::usec(50);
      case OpKind::Count:
        return sim::SimTime::usec(20);
      case OpKind::Scan:
        return sim::SimTime::usec(25 + 2 * std::max<int64_t>(req.limit,
                                                             1));
    }
    return sim::SimTime::usec(30);
}

void
RecordStore::load(const std::string &table, std::vector<RecordRef> records)
{
    Table &t = tables_[table];
    for (RecordRef &r : records) {
        // Ids in ascending order append; any other id is an upsert,
        // so on a repeated id the later record wins.
        if (t.empty() || t.back()->id() < r->id())
            t.push_back(std::move(r));
        else
            upsert(t, std::move(r));
    }
}

} // namespace beehive::db
