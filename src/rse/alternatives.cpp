#include "rse/alternatives.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace repseq::rse {

void broadcast_section_updates(tmk::NodeRuntime& master, const tmk::VectorClock& since) {
  REPSEQ_CHECK(master.is_master(), "section broadcast must run on the master");
  master.end_interval();
  const std::size_t n = master.node_count();
  if (n == 1) return;

  // Receivers must get contiguous notice streams, so the broadcast carries
  // every record the least-informed slave might lack (duplicates are
  // dropped on arrival); diffs are attached only for the master's own
  // section records -- the "data modified during the sequential execution".
  tmk::VectorClock least = master.slave_knowledge(1);
  for (net::NodeId s = 2; s < n; ++s) {
    const tmk::VectorClock& k = master.slave_knowledge(s);
    for (net::NodeId o = 0; o < n; ++o) {
      least.set(o, std::min(least.at(o), k.at(o)));
    }
  }
  std::vector<tmk::IntervalRecordPtr> records = master.log().records_after(least);

  std::vector<tmk::DiffPacket> packets;
  for (std::uint32_t i = since.at(0) + 1; i <= master.vc().at(0); ++i) {
    const tmk::IntervalRecord& rec = master.log().get(0, i);
    for (tmk::PageId p : rec.pages) {
      for (tmk::DiffPacket& pkt : master.collect_diffs(p, {i})) {
        const bool dup = std::any_of(packets.begin(), packets.end(),
                                     [&](const auto& q) { return q.reg == pkt.reg; });
        if (!dup) packets.push_back(std::move(pkt));
      }
    }
  }
  if (records.empty() && packets.empty()) return;

  const std::uint64_t req_id = master.next_req_id();
  auto& slot = master.expect_replies(req_id);
  master.send_multicast(tmk::MsgKind::BcastUpdate,
                        tmk::BcastUpdateP{req_id, std::move(records), std::move(packets)});
  for (std::size_t i = 1; i < n; ++i) {
    (void)slot.pop();  // one BcastAck per slave
  }
  master.drop_reply_slot();
  for (net::NodeId s = 1; s < n; ++s) {
    master.note_slave_knowledge(s, master.vc());
  }
}

}  // namespace repseq::rse
