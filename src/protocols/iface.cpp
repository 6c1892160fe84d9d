#include "protocols/iface.hpp"

#include <stdexcept>

#include "core/engine.hpp"
#include "dist/dist_calvin.hpp"
#include "dist/dist_quecc.hpp"
#include "protocols/hstore.hpp"
#include "protocols/mvto.hpp"
#include "protocols/serial.hpp"
#include "protocols/silo.hpp"
#include "protocols/tictoc.hpp"
#include "protocols/twopl.hpp"

namespace quecc::proto {

std::unique_ptr<engine> make_engine(const std::string& name,
                                    storage::database& db,
                                    const common::config& cfg) {
  if (name == "quecc") return std::make_unique<core::quecc_engine>(db, cfg);
  if (name == "serial") return std::make_unique<serial_engine>(db, cfg);
  if (name == "2pl-nowait") {
    return std::make_unique<twopl_engine>(db, cfg, twopl_variant::no_wait);
  }
  if (name == "2pl-waitdie") {
    return std::make_unique<twopl_engine>(db, cfg, twopl_variant::wait_die);
  }
  if (name == "silo") return std::make_unique<silo_engine>(db, cfg);
  if (name == "tictoc") return std::make_unique<tictoc_engine>(db, cfg);
  if (name == "mvto") return std::make_unique<mvto_engine>(db, cfg);
  if (name == "hstore") return std::make_unique<hstore_engine>(db, cfg);
  if (name == "calvin") {
    // Centralized Calvin is the distributed engine at one node, whatever
    // cfg.nodes says.
    common::config one_node = cfg;
    one_node.nodes = 1;
    return std::make_unique<dist::dist_calvin_engine>(db, one_node,
                                                      "calvin");
  }
  if (name == "dist-quecc") {
    return std::make_unique<dist::dist_quecc_engine>(db, cfg);
  }
  if (name == "dist-calvin") {
    return std::make_unique<dist::dist_calvin_engine>(db, cfg,
                                                      "dist-calvin");
  }
  throw std::invalid_argument("unknown engine: " + name);
}

std::vector<std::string> engine_names() {
  return {"quecc",  "serial", "2pl-nowait", "2pl-waitdie",
          "silo",   "tictoc", "mvto",       "hstore",
          "calvin", "dist-quecc", "dist-calvin"};
}

}  // namespace quecc::proto
