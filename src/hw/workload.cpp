#include "hw/workload.h"

#include "util/check.h"

namespace ttfs::hw {

std::int64_t LayerWorkload::weight_count() const {
  switch (kind) {
    case LayerKind::kConv:
      return cout * cin * kernel * kernel;
    case LayerKind::kFc:
      return cout * cin;
    case LayerKind::kPool:
      return 0;
  }
  return 0;
}

std::int64_t LayerWorkload::dense_macs() const {
  switch (kind) {
    case LayerKind::kConv:
      return cout * hout * wout * cin * kernel * kernel;
    case LayerKind::kFc:
      return cout * cin;
    case LayerKind::kPool:
      return 0;
  }
  return 0;
}

std::int64_t NetworkWorkload::total_weights() const {
  std::int64_t n = 0;
  for (const auto& l : layers) n += l.weight_count();
  return n;
}

std::int64_t NetworkWorkload::total_macs() const {
  std::int64_t n = 0;
  for (const auto& l : layers) n += l.dense_macs();
  return n;
}

std::size_t NetworkWorkload::weighted_layer_count() const {
  std::size_t n = 0;
  for (const auto& l : layers) {
    if (l.kind != LayerKind::kPool) ++n;
  }
  return n;
}

namespace {

LayerWorkload conv_layer(const std::string& name, std::int64_t cin, std::int64_t cout,
                         std::int64_t hw) {
  LayerWorkload l;
  l.kind = LayerKind::kConv;
  l.name = name;
  l.cin = cin;
  l.hin = l.win = hw;
  l.cout = cout;
  l.hout = l.wout = hw;
  l.kernel = 3;
  l.stride = 1;
  l.pad = 1;
  return l;
}

LayerWorkload pool_layer(const std::string& name, std::int64_t ch, std::int64_t hw) {
  LayerWorkload l;
  l.kind = LayerKind::kPool;
  l.name = name;
  l.cin = ch;
  l.hin = l.win = hw;
  l.cout = ch;
  l.hout = l.wout = hw / 2;
  l.kernel = 2;
  l.stride = 2;
  return l;
}

LayerWorkload fc_layer(const std::string& name, std::int64_t in, std::int64_t out) {
  LayerWorkload l;
  l.kind = LayerKind::kFc;
  l.name = name;
  l.cin = in;
  l.hin = l.win = 1;
  l.cout = out;
  l.hout = l.wout = 1;
  return l;
}

}  // namespace

NetworkWorkload vgg16_workload(const std::string& name, std::int64_t image, int classes) {
  TTFS_CHECK_MSG(image >= 32 && (image & (image - 1)) == 0,
                 "vgg16 expects a power-of-two image >= 32, got " << image);
  NetworkWorkload w;
  w.name = name;
  const std::int64_t plan[5][3] = {
      {64, 64, -1}, {128, 128, -1}, {256, 256, 256}, {512, 512, 512}, {512, 512, 512}};
  std::int64_t ch = 3;
  std::int64_t hw = image;
  int conv_idx = 1;
  for (int stage = 0; stage < 5; ++stage) {
    for (int i = 0; i < 3; ++i) {
      const std::int64_t cout = plan[stage][i];
      if (cout < 0) continue;
      w.layers.push_back(conv_layer("conv" + std::to_string(conv_idx++), ch, cout, hw));
      ch = cout;
    }
    w.layers.push_back(pool_layer("pool" + std::to_string(stage + 1), ch, hw));
    hw /= 2;
  }
  const std::int64_t flat = ch * hw * hw;
  w.layers.push_back(fc_layer("fc1", flat, 512));
  w.layers.push_back(fc_layer("fc2", 512, 512));
  w.layers.push_back(fc_layer("fc3", 512, classes));
  w.activity = default_activity(w.weighted_layer_count());
  return w;
}

NetworkWorkload workload_from_snn(const snn::SnnNetwork& net, std::int64_t in_ch,
                                  std::int64_t image, const std::string& name) {
  NetworkWorkload w = snn_geometry(net, in_ch, image, image);
  w.name = name;
  for (std::size_t i = 0; i < w.layers.size(); ++i) w.layers[i].name += std::to_string(i + 1);
  w.activity = default_activity(w.weighted_layer_count());
  return w;
}

NetworkWorkload snn_geometry(const snn::SnnNetwork& net, std::int64_t in_ch, std::int64_t in_h,
                             std::int64_t in_w) {
  NetworkWorkload w;
  w.layers.reserve(net.layers().size());
  std::int64_t ch = in_ch;
  std::int64_t h = in_h;
  std::int64_t wd = in_w;
  for (const auto& layer : net.layers()) {
    LayerWorkload& l = w.layers.emplace_back();
    l.cin = ch;
    l.hin = h;
    l.win = wd;
    if (const auto* conv = std::get_if<snn::SnnConv>(&layer)) {
      TTFS_CHECK_MSG(conv->weight.dim(2) == conv->weight.dim(3),
                     "the processor model takes square conv kernels");
      l.kind = LayerKind::kConv;
      l.name = "conv";
      l.kernel = conv->weight.dim(2);
      l.stride = conv->stride;
      l.pad = conv->pad;
      l.cout = conv->weight.dim(0);
      l.hout = (h + 2 * l.pad - l.kernel) / l.stride + 1;
      l.wout = (wd + 2 * l.pad - l.kernel) / l.stride + 1;
    } else if (const auto* fc = std::get_if<snn::SnnFc>(&layer)) {
      l.kind = LayerKind::kFc;
      l.name = "fc";
      l.cin = fc->weight.dim(1);
      l.cout = fc->weight.dim(0);
      l.hin = l.win = l.hout = l.wout = 1;
    } else {
      const auto& pool = std::get<snn::SnnPool>(layer);
      l.kind = LayerKind::kPool;
      l.name = "pool";
      l.cout = ch;
      l.kernel = pool.kernel;
      l.stride = pool.stride;
      l.hout = (h - pool.kernel) / pool.stride + 1;
      l.wout = (wd - pool.kernel) / pool.stride + 1;
    }
    ch = l.cout;
    h = l.hout;
    wd = l.wout;
  }
  return w;
}

std::vector<double> default_activity(std::size_t weighted_layers, double input_rate, double early,
                                     double late) {
  TTFS_CHECK(weighted_layers >= 1);
  std::vector<double> act;
  act.push_back(input_rate);
  // Hidden fire phases: all weighted layers except the output (never fires).
  const std::size_t hidden = weighted_layers - 1;
  for (std::size_t i = 0; i < hidden; ++i) {
    const double t = hidden <= 1 ? 0.0 : static_cast<double>(i) / static_cast<double>(hidden - 1);
    act.push_back(early + (late - early) * t);
  }
  return act;
}

}  // namespace ttfs::hw
