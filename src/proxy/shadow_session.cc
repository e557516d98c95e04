#include "proxy/shadow_session.h"

#include <cstdint>
#include <iterator>
#include <vector>

namespace beehive::proxy {

db::Response
ShadowSession::apply(const db::RecordStore &store, const db::Request &req)
{
    db::Response resp;
    Key key{req.table, req.key};

    switch (req.kind) {
      case db::OpKind::Put: {
        overlay_[key] = db::Record::make(req.key, req.row);
        deleted_.erase(key);
        ++writes_;
        resp.count = 1;
        resp.ok = true;
        break;
      }
      case db::OpKind::Delete: {
        bool existed = overlay_.erase(key) > 0;
        // Also hide any store row with this key.
        db::Request probe = req;
        probe.kind = db::OpKind::Get;
        existed = existed || store.read(probe).ok;
        deleted_.insert(key);
        ++writes_;
        resp.count = existed ? 1 : 0;
        resp.ok = true;
        break;
      }
      case db::OpKind::Get: {
        if (deleted_.count(key))
            return resp;
        auto it = overlay_.find(key);
        if (it != overlay_.end()) {
            resp.rows.push_back(it->second);
            resp.ok = true;
            return resp;
        }
        return store.read(req);
      }
      case db::OpKind::Scan: {
        // Merge store results with overlay rows for the table,
        // hiding deletions. Overlay rows with ids also present in
        // the store replace them.
        db::Request wide = req;
        wide.offset = 0;
        wide.limit = req.offset + req.limit +
            static_cast<int64_t>(overlay_.size() + deleted_.size());
        db::Response base = store.read(wide);
        // Both inputs are sorted by id: merge them, moving handles.
        auto ov = overlay_.lower_bound({req.table, INT64_MIN});
        auto ov_end = overlay_.upper_bound({req.table, INT64_MAX});
        std::vector<db::RecordRef> merged;
        merged.reserve(base.rows.size());
        for (auto &row : base.rows) {
            for (; ov != ov_end && ov->first.second < row->id(); ++ov)
                merged.push_back(ov->second);
            if (ov != ov_end && ov->first.second == row->id())
                merged.push_back((ov++)->second);
            else if (!deleted_.count({req.table, row->id()}))
                merged.push_back(std::move(row));
        }
        for (; ov != ov_end; ++ov)
            merged.push_back(ov->second);
        auto [begin, end] = req.scanWindow(merged.size());
        resp.rows.assign(std::make_move_iterator(merged.begin() + begin),
                         std::make_move_iterator(merged.begin() + end));
        resp.ok = true;
        break;
      }
      case db::OpKind::Count: {
        db::Response base = store.read(req);
        int64_t count = base.count;
        for (const auto &[k, row] : overlay_) {
            if (k.first != req.table)
                continue;
            db::Request probe;
            probe.kind = db::OpKind::Get;
            probe.table = req.table;
            probe.key = k.second;
            if (!store.read(probe).ok)
                ++count;
        }
        for (const auto &k : deleted_) {
            if (k.first != req.table)
                continue;
            db::Request probe;
            probe.kind = db::OpKind::Get;
            probe.table = req.table;
            probe.key = k.second;
            if (store.read(probe).ok)
                --count;
        }
        resp.count = count;
        resp.ok = true;
        break;
      }
    }
    return resp;
}

} // namespace beehive::proxy
