#include "service/result_io.hpp"

#include "service/frame.hpp"
#include "service/version.hpp"

namespace tsc3d::service {

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
  put_context(payload, res.context);
  payload.boolean(res.legal);
  payload.vec_f64(res.correlation);
  payload.vec_f64(res.entropy);
  payload.f64(res.power_w);
  payload.f64(res.critical_delay_ns);
  payload.f64(res.wirelength_m);
  payload.f64(res.peak_k);
  payload.u64(res.signal_tsvs);
  payload.u64(res.dummy_tsvs);
  payload.u64(res.voltage_volumes);
  payload.f64(res.clock_period_ns);
  payload.u64(res.placement.size());
  for (const PlacedModule& m : res.placement) {
    payload.u64(m.die);
    payload.f64(m.x);
    payload.f64(m.y);
    payload.f64(m.w);
    payload.f64(m.h);
    payload.u64(m.voltage_index);
  }
  payload.u64(res.tsvs.size());
  for (const StoredTsv& t : res.tsvs) {
    payload.f64(t.x);
    payload.f64(t.y);
    payload.u64(t.count);
    payload.u64(t.kind);
    payload.u64(t.net);
  }
  put_rng(payload, res.final_rng);

  write_frame(path, kFrame, payload);
}

ResultLoad load_result_file(const std::filesystem::path& path,
                            const ArtifactContext* expect) {
  ResultLoad out;
  StoredResult res;
  out.reason = read_frame(path, kFrame, [&](ByteReader& r) {
    res.context = get_context(r);
    if (expect != nullptr && !(res.context == *expect))
      return std::string("context mismatch");
    res.legal = r.boolean();
    res.correlation = r.vec_f64();
    res.entropy = r.vec_f64();
    res.power_w = r.f64();
    res.critical_delay_ns = r.f64();
    res.wirelength_m = r.f64();
    res.peak_k = r.f64();
    res.signal_tsvs = r.u64();
    res.dummy_tsvs = r.u64();
    res.voltage_volumes = r.u64();
    res.clock_period_ns = r.f64();
    const std::uint64_t modules = r.u64();
    res.placement.reserve(static_cast<std::size_t>(modules));
    for (std::uint64_t i = 0; i < modules; ++i) {
      PlacedModule m;
      m.die = r.u64();
      m.x = r.f64();
      m.y = r.f64();
      m.w = r.f64();
      m.h = r.f64();
      m.voltage_index = r.u64();
      res.placement.push_back(m);
    }
    const std::uint64_t tsvs = r.u64();
    res.tsvs.reserve(static_cast<std::size_t>(tsvs));
    for (std::uint64_t i = 0; i < tsvs; ++i) {
      StoredTsv t;
      t.x = r.f64();
      t.y = r.f64();
      t.count = r.u64();
      t.kind = r.u64();
      t.net = r.u64();
      res.tsvs.push_back(t);
    }
    res.final_rng = get_rng(r);
    return std::string{};
  });
  out.ok = out.reason.empty();
  if (out.ok) out.result = std::move(res);
  return out;
}

}  // namespace tsc3d::service
