#include "nn/model.h"

#include <optional>
#include <sstream>

#include "common/trace.h"

namespace dl2sql::nn {

Result<Tensor> Model::Forward(const Tensor& input, Device* device) const {
  if (input.shape() != input_shape_) {
    return Status::InvalidArgument("model ", name_, " expects input ",
                                   input_shape_.ToString(), ", got ",
                                   input.shape().ToString());
  }
  Tensor x = input;
  for (const auto& layer : layers_) {
#if !defined(DL2SQL_TRACING_DISABLED)
    // One span per layer forward; the kind is the span name so traces
    // aggregate across models, the layer instance goes into args. The strings
    // are built only while tracing is on: this loop runs for every layer of
    // every native predict.
    std::optional<TraceSpan> span;
    if (TraceCollector::Global().enabled()) {
      span.emplace("nn", LayerKindToString(layer->kind()),
                   "\"layer\":\"" + layer->name() + "\"");
    }
#endif
    auto r = layer->Forward(x, device);
    if (!r.ok()) return r.status().WithContext("layer " + layer->name());
    x = std::move(r).ValueOrDie();
  }
  return x;
}

Result<int64_t> Model::Predict(const Tensor& input, Device* device) const {
  DL2SQL_ASSIGN_OR_RETURN(Tensor out, Forward(input, device));
  int64_t best = 0;
  for (int64_t i = 1; i < out.NumElements(); ++i) {
    if (out.at(i) > out.at(best)) best = i;
  }
  return best;
}

Result<Shape> Model::OutputShape() const {
  Shape s = input_shape_;
  for (const auto& layer : layers_) {
    auto r = layer->OutputShape(s);
    if (!r.ok()) return r.status().WithContext("layer " + layer->name());
    s = std::move(r).ValueOrDie();
  }
  return s;
}

int64_t Model::NumParameters() const {
  int64_t n = 0;
  for (const auto& layer : layers_) n += layer->NumParameters();
  return n;
}

std::vector<NamedParam> Model::Parameters() const {
  std::vector<NamedParam> out;
  for (const auto& layer : layers_) {
    for (auto& p : layer->Parameters()) {
      out.push_back({layer->name() + "." + p.name, p.tensor});
    }
  }
  return out;
}

std::string Model::Summary() const {
  std::ostringstream oss;
  oss << "Model " << name_ << " input=" << input_shape_.ToString()
      << " classes=" << classes_.size() << " params=" << NumParameters() << "\n";
  Shape s = input_shape_;
  for (const auto& layer : layers_) {
    auto r = layer->OutputShape(s);
    oss << "  " << LayerKindToString(layer->kind()) << " " << layer->name();
    if (r.ok()) {
      s = r.ValueOrDie();
      oss << " -> " << s.ToString();
    } else {
      oss << " -> <error: " << r.status().message() << ">";
    }
    oss << " (" << layer->NumParameters() << " params)\n";
  }
  return oss.str();
}

}  // namespace dl2sql::nn
