/**
 * @file
 * Unit tests for proxy-based connection management and shadow
 * execution interception (paper Sections 3.3 and 3.4).
 */

#include <gtest/gtest.h>

#include "db/record_store.h"
#include "net/network.h"
#include "proxy/connection_proxy.h"
#include "proxy/shadow_session.h"

namespace beehive::proxy {
namespace {

db::Row
makeRow(int64_t id, const std::string &body)
{
    db::Row r;
    r.id = id;
    r.fields["body"] = body;
    return r;
}

db::RecordRef
makeRecord(int64_t id, const std::string &body)
{
    const db::Field fields[] = {{"body", body}};
    return db::Record::make(id, fields);
}

class ProxyTest : public ::testing::Test
{
  protected:
    ProxyTest() : proxy(store)
    {
        store.createTable("comments");
        store.load("comments",
                   {makeRecord(1, "first"), makeRecord(2, "second")});
        server = net.addNode("server", "vpc");
        faas = net.addNode("fn-1", "vpc");
        conn = proxy.openConnection(server);
    }

    db::RecordStore store;
    net::Network net;
    ConnectionProxy proxy;
    net::EndpointId server, faas;
    ConnId conn;
};

TEST_F(ProxyTest, ServerRequestsRouteToStore)
{
    db::Request get{db::OpKind::Get, "comments", 1};
    db::Response resp = proxy.request(conn, get);
    ASSERT_TRUE(resp.ok);
    EXPECT_EQ(resp.rows[0]->wire(), "1|body=first");
    EXPECT_EQ(proxy.stats().requests_routed, 1u);
}

TEST_F(ProxyTest, PrepareMintsUniqueIds)
{
    OffloadId a = proxy.prepare(conn);
    OffloadId b = proxy.prepare(conn);
    EXPECT_NE(a, b);
    EXPECT_EQ(proxy.stats().prepares, 2u);
    const auto *desc = proxy.descriptor(a);
    ASSERT_NE(desc, nullptr);
    EXPECT_EQ(desc->conn, conn);
    EXPECT_EQ(desc->server, server);
    EXPECT_EQ(desc->faas, net::kNoEndpoint);
}

TEST_F(ProxyTest, AttachCompletesDescriptorTriple)
{
    OffloadId id = proxy.prepare(conn);
    EXPECT_TRUE(proxy.attach(id, faas));
    const auto *desc = proxy.descriptor(id);
    ASSERT_NE(desc, nullptr);
    EXPECT_EQ(desc->faas, faas);
}

TEST_F(ProxyTest, AttachUnknownIdFails)
{
    EXPECT_FALSE(proxy.attach(987654, faas));
}

TEST_F(ProxyTest, OffloadedRequestsUseSameConnection)
{
    OffloadId id = proxy.prepare(conn);
    proxy.attach(id, faas);
    db::Request get{db::OpKind::Get, "comments", 2};
    db::Response resp = proxy.requestViaOffload(id, get);
    ASSERT_TRUE(resp.ok);
    EXPECT_EQ(resp.rows[0]->wire(), "2|body=second");
    EXPECT_EQ(proxy.stats().offload_requests, 1u);
}

TEST_F(ProxyTest, OffloadedWriteIsVisibleToServer)
{
    OffloadId id = proxy.prepare(conn);
    proxy.attach(id, faas);
    db::Request put{db::OpKind::Put, "comments", 3};
    put.row = makeRow(0, "from-faas");
    EXPECT_TRUE(proxy.requestViaOffload(id, put).ok);

    db::Request get{db::OpKind::Get, "comments", 3};
    db::Response resp = proxy.request(conn, get);
    ASSERT_TRUE(resp.ok);
    EXPECT_EQ(resp.rows[0]->wire(), "3|body=from-faas");
}

TEST_F(ProxyTest, CloseConnectionInvalidatesOffloadIds)
{
    OffloadId id = proxy.prepare(conn);
    proxy.closeConnection(conn);
    EXPECT_FALSE(proxy.isOpen(conn));
    EXPECT_EQ(proxy.descriptor(id), nullptr);
    EXPECT_FALSE(proxy.attach(id, faas));
}

TEST_F(ProxyTest, ShadowWritesAreInvisibleToStore)
{
    OffloadId id = proxy.prepare(conn);
    proxy.attach(id, faas);
    ShadowToken token = proxy.shadowBegin(faas);

    db::Request put{db::OpKind::Put, "comments", 50};
    put.row = makeRow(0, "shadow-only");
    EXPECT_TRUE(proxy.requestViaOffload(id, put, token).ok);

    // The store (and hence the server) never sees the write.
    db::Request get{db::OpKind::Get, "comments", 50};
    EXPECT_FALSE(proxy.request(conn, get).ok);
    EXPECT_EQ(store.tableSize("comments"), 2u);
}

TEST_F(ProxyTest, ShadowReadsSeeOwnWrites)
{
    OffloadId id = proxy.prepare(conn);
    proxy.attach(id, faas);
    ShadowToken token = proxy.shadowBegin(faas);

    db::Request put{db::OpKind::Put, "comments", 50};
    put.row = makeRow(0, "shadow-only");
    proxy.requestViaOffload(id, put, token);

    db::Request get{db::OpKind::Get, "comments", 50};
    db::Response resp = proxy.requestViaOffload(id, get, token);
    ASSERT_TRUE(resp.ok);
    EXPECT_EQ(resp.rows[0]->wire(), "50|body=shadow-only");
}

TEST_F(ProxyTest, ShadowReadsFallThroughToStore)
{
    OffloadId id = proxy.prepare(conn);
    proxy.attach(id, faas);
    ShadowToken token = proxy.shadowBegin(faas);

    db::Request get{db::OpKind::Get, "comments", 1};
    db::Response resp = proxy.requestViaOffload(id, get, token);
    ASSERT_TRUE(resp.ok);
    EXPECT_EQ(resp.rows[0]->wire(), "1|body=first");
}

TEST_F(ProxyTest, ShadowEndDiscardsOverlayAndResumesRealWrites)
{
    OffloadId id = proxy.prepare(conn);
    proxy.attach(id, faas);
    ShadowToken token = proxy.shadowBegin(faas);

    db::Request put{db::OpKind::Put, "comments", 60};
    put.row = makeRow(0, "buffered");
    proxy.requestViaOffload(id, put, token);
    proxy.shadowEnd(token);
    EXPECT_FALSE(proxy.shadowActive(token));
    EXPECT_EQ(proxy.stats().shadow_writes, 1u);

    // Post-shadow requests with the stale token hit the store.
    db::Request put2{db::OpKind::Put, "comments", 61};
    put2.row = makeRow(0, "real");
    proxy.requestViaOffload(id, put2, token);
    db::Request get{db::OpKind::Get, "comments", 61};
    EXPECT_TRUE(proxy.request(conn, get).ok);
    // The buffered shadow write never landed.
    db::Request get60{db::OpKind::Get, "comments", 60};
    EXPECT_FALSE(proxy.request(conn, get60).ok);
}

TEST_F(ProxyTest, ConcurrentShadowSessionsAreIsolated)
{
    OffloadId id = proxy.prepare(conn);
    proxy.attach(id, faas);
    ShadowToken t1 = proxy.shadowBegin(faas);
    ShadowToken t2 = proxy.shadowBegin(faas);

    db::Request put{db::OpKind::Put, "comments", 70};
    put.row = makeRow(0, "from-t1");
    proxy.requestViaOffload(id, put, t1);

    db::Request get{db::OpKind::Get, "comments", 70};
    EXPECT_TRUE(proxy.requestViaOffload(id, get, t1).ok);
    EXPECT_FALSE(proxy.requestViaOffload(id, get, t2).ok);
}

TEST(ShadowSession, DeleteHidesStoreRow)
{
    db::RecordStore store;
    store.load("t", {makeRecord(1, "a"), makeRecord(2, "b")});
    ShadowSession shadow;

    db::Request del{db::OpKind::Delete, "t", 1};
    EXPECT_EQ(shadow.apply(store, del).count, 1);

    db::Request get{db::OpKind::Get, "t", 1};
    EXPECT_FALSE(shadow.apply(store, get).ok);
    // Store untouched.
    EXPECT_TRUE(store.read(get).ok);
}

TEST(ShadowSession, PutAfterDeleteResurrects)
{
    db::RecordStore store;
    store.load("t", {makeRecord(1, "a")});
    ShadowSession shadow;

    db::Request del{db::OpKind::Delete, "t", 1};
    shadow.apply(store, del);
    db::Request put{db::OpKind::Put, "t", 1};
    put.row = makeRow(0, "new");
    shadow.apply(store, put);

    db::Request get{db::OpKind::Get, "t", 1};
    db::Response resp = shadow.apply(store, get);
    ASSERT_TRUE(resp.ok);
    EXPECT_EQ(resp.rows[0]->wire(), "1|body=new");
}

TEST(ShadowSession, ScanMergesOverlayAndStore)
{
    db::RecordStore store;
    store.load("t", {makeRecord(1, "a"), makeRecord(3, "c")});
    ShadowSession shadow;

    db::Request put{db::OpKind::Put, "t", 2};
    put.row = makeRow(0, "b");
    shadow.apply(store, put);
    db::Request del{db::OpKind::Delete, "t", 3};
    shadow.apply(store, del);

    db::Request scan{db::OpKind::Scan, "t"};
    scan.limit = 10;
    db::Response resp = shadow.apply(store, scan);
    ASSERT_TRUE(resp.ok);
    ASSERT_EQ(resp.rows.size(), 2u);
    EXPECT_EQ(resp.rows[0]->id(), 1);
    EXPECT_EQ(resp.rows[1]->id(), 2);
}

TEST(ShadowSession, ScanOverlayReplacesStoreRow)
{
    db::RecordStore store;
    store.load("t", {makeRecord(1, "old")});
    ShadowSession shadow;

    db::Request put{db::OpKind::Put, "t", 1};
    put.row = makeRow(0, "new");
    shadow.apply(store, put);

    db::Request scan{db::OpKind::Scan, "t"};
    scan.limit = 10;
    db::Response resp = shadow.apply(store, scan);
    ASSERT_EQ(resp.rows.size(), 1u);
    EXPECT_EQ(resp.rows[0]->wire(), "1|body=new");
}

TEST(ShadowSession, CountAccountsForOverlayInsertsAndDeletes)
{
    db::RecordStore store;
    store.load("t", {makeRecord(1, "a"), makeRecord(2, "b")});
    ShadowSession shadow;

    db::Request put{db::OpKind::Put, "t", 5};
    put.row = makeRow(0, "c");
    shadow.apply(store, put);
    db::Request del{db::OpKind::Delete, "t", 1};
    shadow.apply(store, del);

    db::Request count{db::OpKind::Count, "t"};
    EXPECT_EQ(shadow.apply(store, count).count, 2);
    // Overwriting an existing store row must not change the count.
    db::Request put2{db::OpKind::Put, "t", 2};
    put2.row = makeRow(0, "b2");
    shadow.apply(store, put2);
    EXPECT_EQ(shadow.apply(store, count).count, 2);
}

} // namespace
} // namespace beehive::proxy
