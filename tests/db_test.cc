/**
 * @file
 * Unit tests for the record store.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "db/record_store.h"

namespace beehive::db {
namespace {

Row
makeRow(int64_t id, const std::string &body)
{
    Row r;
    r.id = id;
    r.fields["body"] = body;
    return r;
}

RecordRef
makeRecord(int64_t id, const std::string &body)
{
    const Field fields[] = {{"body", body}};
    return Record::make(id, fields);
}

class RecordStoreTest : public ::testing::Test
{
  protected:
    RecordStoreTest()
    {
        store.createTable("topics");
        for (int64_t i = 1; i <= 10; ++i)
            store.load("topics", {makeRecord(i, "topic-" +
                                                     std::to_string(i))});
    }

    RecordStore store;
};

TEST_F(RecordStoreTest, CreateTableIsIdempotent)
{
    store.createTable("topics");
    EXPECT_EQ(store.tableSize("topics"), 10u);
    EXPECT_TRUE(store.hasTable("topics"));
    EXPECT_FALSE(store.hasTable("nope"));
}

TEST_F(RecordStoreTest, GetReturnsStoredRow)
{
    Request req{OpKind::Get, "topics", 3};
    Response resp = store.execute(req);
    ASSERT_TRUE(resp.ok);
    ASSERT_EQ(resp.rows.size(), 1u);
    EXPECT_EQ(resp.rows[0]->wire(), "3|body=topic-3");
}

TEST_F(RecordStoreTest, GetMissingRowFails)
{
    Request req{OpKind::Get, "topics", 999};
    EXPECT_FALSE(store.execute(req).ok);
}

TEST_F(RecordStoreTest, GetMissingTableFails)
{
    Request req{OpKind::Get, "absent", 1};
    EXPECT_FALSE(store.execute(req).ok);
}

TEST_F(RecordStoreTest, PutInsertsAndOverwrites)
{
    Request put{OpKind::Put, "topics", 42};
    put.row = makeRow(0, "fresh");
    EXPECT_TRUE(store.execute(put).ok);
    EXPECT_EQ(store.tableSize("topics"), 11u);

    put.row = makeRow(0, "updated");
    EXPECT_TRUE(store.execute(put).ok);
    EXPECT_EQ(store.tableSize("topics"), 11u);

    Request get{OpKind::Get, "topics", 42};
    EXPECT_EQ(store.execute(get).rows[0]->wire(), "42|body=updated");
    // Put fixes the row id to the request key.
    EXPECT_EQ(store.execute(get).rows[0]->id(), 42);
}

TEST_F(RecordStoreTest, DeleteRemovesRow)
{
    Request del{OpKind::Delete, "topics", 5};
    Response resp = store.execute(del);
    EXPECT_TRUE(resp.ok);
    EXPECT_EQ(resp.count, 1);
    EXPECT_EQ(store.tableSize("topics"), 9u);
    EXPECT_EQ(store.execute(del).count, 0);
}

TEST_F(RecordStoreTest, ScanRespectsOffsetAndLimit)
{
    Request scan{OpKind::Scan, "topics"};
    scan.offset = 2;
    scan.limit = 3;
    Response resp = store.execute(scan);
    ASSERT_TRUE(resp.ok);
    ASSERT_EQ(resp.rows.size(), 3u);
    EXPECT_EQ(resp.rows[0]->id(), 3);
    EXPECT_EQ(resp.rows[2]->id(), 5);
}

TEST_F(RecordStoreTest, ScanPastEndReturnsShortResult)
{
    Request scan{OpKind::Scan, "topics"};
    scan.offset = 8;
    scan.limit = 10;
    EXPECT_EQ(store.execute(scan).rows.size(), 2u);
    scan.offset = 100;
    EXPECT_EQ(store.execute(scan).rows.size(), 0u);
}

TEST(RecordStore, PutsIntoTheMiddleScanInIdOrder)
{
    RecordStore store;
    store.load("t", {makeRecord(30, "c"), makeRecord(10, "a")});
    for (int64_t id : {20, 5, 25}) {
        Request put{OpKind::Put, "t", id};
        put.row = makeRow(0, "p" + std::to_string(id));
        ASSERT_TRUE(store.execute(put).ok);
    }
    Request scan{OpKind::Scan, "t"};
    scan.limit = 100;
    Response resp = store.execute(scan);
    ASSERT_TRUE(resp.ok);
    std::vector<std::string> wires;
    for (const RecordRef &r : resp.rows)
        wires.emplace_back(r->wire());
    EXPECT_EQ(wires, (std::vector<std::string>{
                         "5|body=p5", "10|body=a", "20|body=p20",
                         "25|body=p25", "30|body=c"}));
}

TEST(RecordStore, LoadKeepsTheLaterRecordOfARepeatedId)
{
    // Out-of-order and repeated ids, within one load and across two:
    // the later record wins, as a Put would, and scans run in id
    // order.
    RecordStore store;
    store.load("t", {makeRecord(20, "b"), makeRecord(10, "a"),
                     makeRecord(20, "b2"), makeRecord(30, "c")});
    store.load("t", {makeRecord(10, "a2"), makeRecord(40, "d")});
    EXPECT_EQ(store.tableSize("t"), 4u);
    Request scan{OpKind::Scan, "t"};
    scan.limit = 100;
    Response resp = store.execute(scan);
    ASSERT_TRUE(resp.ok);
    std::vector<std::string> wires;
    for (const RecordRef &r : resp.rows)
        wires.emplace_back(r->wire());
    EXPECT_EQ(wires, (std::vector<std::string>{
                         "10|body=a2", "20|body=b2", "30|body=c",
                         "40|body=d"}));
}

TEST(Record, SortedFieldsEncodeLikeTheirRow)
{
    Row two;
    two.fields["title"] = "post-1";
    two.fields["body"] = std::string(600, 'b');
    const std::string body(600, 'b');
    const Field fields[] = {{"body", body}, {"title", "post-1"}};
    const Record from_fields(12345, fields);
    const Record from_row(12345, two);
    EXPECT_EQ(from_fields.wire(), from_row.wire());
    EXPECT_EQ(from_fields.wireSize(), 647u);
    EXPECT_EQ(from_row.wireSize(), 647u);
    const Record bare(-7, std::span<const Field>{});
    EXPECT_EQ(bare.wire(), "-7");
    EXPECT_EQ(bare.wireSize(), Row{}.wireSize());
}

TEST(RecordDeathTest, FieldsOutOfKeyOrderPanic)
{
    const Field fields[] = {{"title", "t"}, {"body", "b"}};
    EXPECT_DEATH(Record(1, fields), "sorted by key");
}

TEST_F(RecordStoreTest, ScanSkipsDeletedRow)
{
    Request del{OpKind::Delete, "topics", 4};
    ASSERT_EQ(store.execute(del).count, 1);
    Request scan{OpKind::Scan, "topics"};
    scan.offset = 2;
    scan.limit = 3;
    Response resp = store.execute(scan);
    ASSERT_EQ(resp.rows.size(), 3u);
    EXPECT_EQ(resp.rows[0]->id(), 3);
    EXPECT_EQ(resp.rows[1]->id(), 5);
    EXPECT_EQ(resp.rows[2]->id(), 6);
}

TEST_F(RecordStoreTest, ScanClampsOffsetAndLimit)
{
    Request scan{OpKind::Scan, "topics"};
    scan.offset = 0;
    scan.limit = 0;
    Response none = store.execute(scan);
    EXPECT_TRUE(none.ok);
    EXPECT_TRUE(none.rows.empty());
    scan.limit = -3;
    EXPECT_TRUE(store.execute(scan).rows.empty());

    scan.offset = -5;
    scan.limit = 2;
    Response head = store.execute(scan);
    ASSERT_EQ(head.rows.size(), 2u);
    EXPECT_EQ(head.rows[0]->id(), 1);
    EXPECT_EQ(head.rows[1]->id(), 2);
}

TEST_F(RecordStoreTest, ResponseKeepsItsRowAcrossLaterWrites)
{
    Request get{OpKind::Get, "topics", 7};
    Response before = store.execute(get);
    Request scan{OpKind::Scan, "topics"};
    scan.offset = 6;
    scan.limit = 1;
    Response scanned = store.execute(scan);

    Request put{OpKind::Put, "topics", 7};
    put.row = makeRow(0, "rewritten");
    ASSERT_TRUE(store.execute(put).ok);
    EXPECT_EQ(store.execute(get).rows[0]->wire(), "7|body=rewritten");
    Request del{OpKind::Delete, "topics", 7};
    ASSERT_EQ(store.execute(del).count, 1);

    ASSERT_EQ(before.rows.size(), 1u);
    EXPECT_EQ(before.rows[0]->wire(), "7|body=topic-7");
    ASSERT_EQ(scanned.rows.size(), 1u);
    EXPECT_EQ(scanned.rows[0]->wire(), "7|body=topic-7");
    EXPECT_EQ(before.wireSize(), 51u); // 16 + (16+4+7+8)
}

TEST_F(RecordStoreTest, CountReportsTableSize)
{
    Request count{OpKind::Count, "topics"};
    EXPECT_EQ(store.execute(count).count, 10);
}

TEST_F(RecordStoreTest, ReadRejectsWrites)
{
    Request get{OpKind::Get, "topics", 1};
    EXPECT_TRUE(store.read(get).ok);
    Request put{OpKind::Put, "topics", 1};
    EXPECT_DEATH((void)store.read(put), "read-only");
}

TEST_F(RecordStoreTest, ServiceTimeScalesWithScanSize)
{
    Request small{OpKind::Scan, "topics"};
    small.limit = 1;
    Request big{OpKind::Scan, "topics"};
    big.limit = 500;
    EXPECT_LT(store.serviceTime(small), store.serviceTime(big));
}

TEST(WireSize, GrowsWithPayload)
{
    Row small = makeRow(1, "x");
    Row big = makeRow(2, std::string(1000, 'y'));
    EXPECT_LT(small.wireSize(), big.wireSize());

    Request put{OpKind::Put, "t", 1};
    put.row = big;
    Request get{OpKind::Get, "t", 1};
    EXPECT_GT(put.wireSize(), get.wireSize());

    Response resp;
    resp.rows.push_back(Record::make(big.id, big));
    EXPECT_GT(resp.wireSize(), big.wireSize());
}

TEST(WireSize, ExactValuesArePinned)
{
    // The network model's inputs: 16 per row plus key + value + 8
    // per field; 16 per response plus its rows.
    Row empty;
    EXPECT_EQ(empty.wireSize(), 16u);
    Row two;
    two.id = 12345;
    two.fields["title"] = "post-1";
    two.fields["body"] = std::string(600, 'b');
    EXPECT_EQ(two.wireSize(), 647u); // 16 + (5+6+8) + (4+600+8)
    EXPECT_EQ(Record(99, two).wireSize(), two.wireSize());

    Response resp;
    EXPECT_EQ(resp.wireSize(), 16u);
    resp.rows.push_back(Record::make(two.id, two));
    resp.rows.push_back(Record::make(1, makeRow(1, "x")));
    EXPECT_EQ(resp.wireSize(), 692u); // 16 + 647 + (16+4+1+8)

    Request put{OpKind::Put, "posts", 3};
    put.row = two;
    EXPECT_EQ(put.wireSize(), 684u); // 32 + "posts" + 647
    EXPECT_EQ(Request(OpKind::Get, "posts", 3).wireSize(), 37u);
}

} // namespace
} // namespace beehive::db
