// Standalone DRAT proof checker over the in-tree proof::DratChecker.
//
//   ./build/examples/drat_check formula.cnf proof.drat
//   ./build/examples/drat_check --generate hole:6 proof.drat --core core.cnf
//   ./build/examples/drat_check formula.cnf proof.drat --trim trimmed.drat
//
// The trace format (text or binary DRAT) is autodetected. Exit codes:
// 0 = the proof verifies end-to-end (the formula is certified
// unsatisfiable), 1 = verification failure or usage error.
#include <iostream>

#include "cnf/dimacs.h"
#include "gen/registry.h"
#include "proof/drat_checker.h"
#include "proof/drat_file.h"
#include "util/cli.h"
#include "util/timer.h"

using namespace berkmin;

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  args.add_option("generate", "",
                  "check against a generated instance instead of a DIMACS "
                  "file (specs as in dimacs_solver --list-generators)");
  args.add_option("core", "",
                  "write the extracted unsatisfiable core (original clauses "
                  "the trimmed proof rests on) to this file as DIMACS");
  args.add_option("trim", "", "write the trimmed proof to this file");
  args.add_flag("binary", "write the trimmed proof in binary DRAT");
  args.add_flag("quiet", "print nothing, report through the exit code only");
  args.add_flag("help", "show this help");

  if (!args.parse()) {
    std::cerr << "error: " << args.error() << "\n";
    return 1;
  }
  if (args.has_flag("help")) {
    std::cout << args.help(
        "drat_check — verify a DRAT trace, trim it, extract an UNSAT core");
    return 0;
  }
  const bool quiet = args.has_flag("quiet");

  Cnf cnf;
  std::string proof_path;
  try {
    if (const std::string spec = args.get_string("generate"); !spec.empty()) {
      if (args.positional().size() != 1) {
        std::cerr << "error: with --generate, give exactly the proof file\n";
        return 1;
      }
      std::string error;
      auto instance = gen::generate_from_spec(spec, &error);
      if (!instance) {
        std::cerr << "error: " << error << "\n";
        return 1;
      }
      cnf = std::move(instance->cnf);
      proof_path = args.positional()[0];
    } else {
      if (args.positional().size() != 2) {
        std::cerr << "error: want <formula.cnf> <proof.drat> (or --generate "
                     "<spec> <proof.drat>)\n";
        return 1;
      }
      cnf = dimacs::read_file(args.positional()[0]);
      proof_path = args.positional()[1];
    }
  } catch (const std::exception& ex) {
    std::cerr << "error: " << ex.what() << "\n";
    return 1;
  }

  proof::Proof trace;
  std::string error;
  proof::DratFormat detected = proof::DratFormat::text;
  if (!proof::read_drat_file(proof_path, &trace, &error, &detected)) {
    std::cerr << "error: " << error << "\n";
    return 1;
  }
  if (!quiet) {
    std::cout << "c " << cnf.num_vars() << " variables, " << cnf.num_clauses()
              << " clauses; " << trace.size() << " proof steps ("
              << trace.num_adds() << " adds, " << trace.num_deletes()
              << " deletes, "
              << (detected == proof::DratFormat::binary ? "binary" : "text")
              << " format)\n";
  }

  WallTimer timer;
  proof::DratChecker checker(cnf);
  const proof::CheckResult result = checker.check(trace);
  if (!result.valid) {
    if (!quiet) {
      std::cout << "s NOT VERIFIED\n";
      std::cerr << "error: " << result.error << "\n";
    }
    return 1;
  }
  if (!quiet) {
    std::cout << "c verified " << result.checked_adds << " additions ("
              << result.skipped_deletions << " of " << result.deletions
              << " deletions skipped, " << result.propagations
              << " propagations) in " << timer.seconds() << " s\n"
              << "c trimmed proof: " << checker.trimmed().num_adds()
              << " adds; core: " << checker.core().size() << " of "
              << cnf.num_clauses() << " original clauses\n";
  }

  try {
    if (const std::string path = args.get_string("core"); !path.empty()) {
      dimacs::write_file(path,
                         proof::DratChecker::core_formula(cnf, checker.core()),
                         "unsat core extracted by drat_check");
      if (!quiet) std::cout << "c wrote core to " << path << "\n";
    }
  } catch (const std::exception& ex) {
    std::cerr << "error: " << ex.what() << "\n";
    return 1;
  }
  if (const std::string path = args.get_string("trim"); !path.empty()) {
    const proof::DratFormat format = args.has_flag("binary")
                                         ? proof::DratFormat::binary
                                         : proof::DratFormat::text;
    if (!proof::write_drat_file(path, checker.trimmed(), format, &error)) {
      std::cerr << "error: " << error << "\n";
      return 1;
    }
    if (!quiet) std::cout << "c wrote trimmed proof to " << path << "\n";
  }

  if (!quiet) std::cout << "s VERIFIED\n";
  return 0;
}
