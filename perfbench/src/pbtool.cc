#include "pbtool.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

Args::Args(int argc, char **argv, int first)
{
    for (int i = first; i < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc)
            die(std::string("expected --key value, got ") + argv[i]);
        values_[argv[i] + 2] = argv[i + 1];
    }
}

const std::string &
Args::str(const std::string &key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        die("missing --" + key);
    return it->second;
}

void
die(const std::string &msg)
{
    std::fprintf(stderr, "pbtool: %s\n", msg.c_str());
    std::exit(2);
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc < 2)
        die("usage: pbtool {trace|load|hello|eval|hwsim} --key value...");
    const std::string cmd = argv[1];
    const Args args(argc, argv, 2);
    if (cmd == "trace")
        return traceMain(args);
    if (cmd == "load")
        return loadMain(args);
    if (cmd == "hello")
        return helloMain(args);
    if (cmd == "eval")
        return evalMain(args);
    if (cmd == "hwsim")
        return hwsimMain(args);
    die("unknown subcommand " + cmd);
}
