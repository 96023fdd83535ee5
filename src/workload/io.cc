#include "workload/io.h"

#include <sstream>
#include <string>

#include "util/check.h"

namespace bsio::wl {

namespace {

// Next non-empty, non-comment line.
bool next_line(std::istream& is, std::string& line) {
  while (std::getline(is, line)) {
    std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;
    if (line[start] == '#') continue;
    line = line.substr(start);
    return true;
  }
  return false;
}

}  // namespace

void save_workload(const Workload& w, std::ostream& os) {
  os << "bsio-workload 1\n";
  os << "files " << w.num_files() << "\n";
  os.precision(17);
  for (const auto& f : w.files())
    os << f.size_bytes << ' ' << f.home_storage_node << '\n';
  os << "tasks " << w.num_tasks() << "\n";
  for (const auto& t : w.tasks()) {
    os << t.compute_seconds << ' ' << t.files.size();
    for (FileId f : t.files) os << ' ' << f;
    os << '\n';
  }
}

Workload load_workload(std::istream& is) {
  std::string line;
  BSIO_CHECK_MSG(next_line(is, line), "empty workload stream");
  {
    std::istringstream ls(line);
    std::string magic;
    int version = 0;
    ls >> magic >> version;
    BSIO_CHECK_MSG(magic == "bsio-workload" && version == 1,
                   "not a bsio-workload v1 stream");
  }

  BSIO_CHECK(next_line(is, line));
  std::size_t num_files = 0;
  {
    std::istringstream ls(line);
    std::string kw;
    ls >> kw >> num_files;
    BSIO_CHECK_MSG(kw == "files", "expected 'files <count>'");
  }
  std::vector<FileInfo> files(num_files);
  for (auto& f : files) {
    BSIO_CHECK_MSG(next_line(is, line), "truncated file table");
    std::istringstream ls(line);
    ls >> f.size_bytes >> f.home_storage_node;
    BSIO_CHECK_MSG(!ls.fail(), "malformed file line");
  }

  BSIO_CHECK(next_line(is, line));
  std::size_t num_tasks = 0;
  {
    std::istringstream ls(line);
    std::string kw;
    ls >> kw >> num_tasks;
    BSIO_CHECK_MSG(kw == "tasks", "expected 'tasks <count>'");
  }
  std::vector<TaskInfo> tasks(num_tasks);
  for (auto& t : tasks) {
    BSIO_CHECK_MSG(next_line(is, line), "truncated task table");
    std::istringstream ls(line);
    std::size_t n = 0;
    ls >> t.compute_seconds >> n;
    BSIO_CHECK_MSG(!ls.fail(), "malformed task line");
    t.files.resize(n);
    for (auto& f : t.files) ls >> f;
    BSIO_CHECK_MSG(!ls.fail(), "task references fewer files than declared");
  }
  return Workload(std::move(tasks), std::move(files));
}

}  // namespace bsio::wl
