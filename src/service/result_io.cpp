#include "service/result_io.hpp"

#include "service/frame.hpp"
#include "service/version.hpp"

namespace tsc3d::service {

// --- the result's records, in on-disk order -----------------------------

template <class IO, RecordOf<PlacedModule> R>
void fields(IO& io, R& m) {
  io(m.die, m.x, m.y, m.w, m.h, m.voltage_index);
}

template <class IO, RecordOf<StoredTsv> R>
void fields(IO& io, R& t) {
  io(t.x, t.y, t.count, t.kind, t.net);
}

template <class IO, RecordOf<StoredResult> R>
void fields(IO& io, R& r) {
  io(r.context, r.legal, r.correlation, r.entropy, r.power_w,
     r.critical_delay_ns, r.wirelength_m, r.peak_k, r.signal_tsvs,
     r.dummy_tsvs, r.voltage_volumes, r.clock_period_ns, r.placement, r.tsvs,
     r.final_rng);
}

namespace {

constexpr FrameFormat kFrame{{'T', 'S', 'C', '3', 'D', 'R', 'E', 'S'},
                             kResultFormatVersion, "result"};

}  // namespace

StoredResult make_stored_result(const ArtifactContext& context,
                                const Floorplan3D& fp,
                                const floorplan::FloorplanMetrics& metrics,
                                const Rng& rng) {
  StoredResult res;
  res.context = context;
  res.legal = metrics.legal;
  res.correlation = metrics.correlation;
  res.entropy = metrics.entropy;
  res.power_w = metrics.power_w;
  res.critical_delay_ns = metrics.critical_delay_ns;
  res.wirelength_m = metrics.wirelength_m;
  res.peak_k = metrics.peak_k;
  res.signal_tsvs = metrics.signal_tsvs;
  res.dummy_tsvs = metrics.dummy_tsvs;
  res.voltage_volumes = metrics.voltage_volumes;
  res.clock_period_ns = fp.tech().clock_period_ns;
  res.placement.reserve(fp.modules().size());
  for (const Module& m : fp.modules()) {
    PlacedModule pm;
    pm.die = m.die;
    pm.x = m.shape.x;
    pm.y = m.shape.y;
    pm.w = m.shape.w;
    pm.h = m.shape.h;
    pm.voltage_index = m.voltage_index;
    res.placement.push_back(pm);
  }
  res.tsvs.reserve(fp.tsvs().size());
  for (const Tsv& t : fp.tsvs()) {
    StoredTsv st;
    st.x = t.position.x;
    st.y = t.position.y;
    st.count = t.count;
    st.kind = static_cast<std::uint64_t>(t.kind);
    st.net = t.net;
    res.tsvs.push_back(st);
  }
  res.final_rng = rng.state();
  return res;
}

void save_result_file(const std::filesystem::path& path,
                      const StoredResult& res) {
  ByteWriter payload;
  payload(res);
  write_frame(path, kFrame, payload);
}

ResultLoad load_result_file(const std::filesystem::path& path,
                            const ArtifactContext* expect) {
  ResultLoad out;
  StoredResult res;
  out.reason = read_record(path, kFrame, expect, res);
  out.ok = out.reason.empty();
  if (out.ok) out.result = std::move(res);
  return out;
}

}  // namespace tsc3d::service
