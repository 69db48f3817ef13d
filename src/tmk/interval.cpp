#include "tmk/interval.hpp"

#include <string>

namespace repseq::tmk {

bool IntervalLog::insert(IntervalRecordPtr rec) {
  auto& vec = per_owner_[rec->owner];
  if (rec->index <= vec.size()) return false;  // already known
  REPSEQ_CHECK(rec->index == vec.size() + 1,
               "interval record gap for owner " + std::to_string(rec->owner) + ": have " +
                   std::to_string(vec.size()) + ", got " + std::to_string(rec->index));
  clock_.set(rec->owner, rec->index);
  for (PageId p : rec->pages) page_index_[p].push_back(rec);
  vec.push_back(std::move(rec));
  return true;
}

}  // namespace repseq::tmk
