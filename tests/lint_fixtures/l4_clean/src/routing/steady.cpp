// Lint fixture (L4, clean): the component TU registers itself.
#define FLEXNET_REGISTER_ROUTING(...)

namespace flexnet {

class RoutingAlgorithm {
 public:
  virtual ~RoutingAlgorithm() = default;
};

class SteadyRouting final : public RoutingAlgorithm {
 public:
  int hops = 0;
};

}  // namespace flexnet

FLEXNET_REGISTER_ROUTING({
    "steady",
    "registered in its own TU",
    nullptr})
