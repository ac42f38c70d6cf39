// focus_cli — end-to-end command-line tool over the library:
//
//   focus_cli generate --dataset=PEMS08 --out=data.csv
//   focus_cli cluster  --data=data.csv --p=16 --k=16 --out=protos.bin
//   focus_cli train    --data=data.csv --prototypes=protos.bin
//                      --lookback=192 --horizon=96 --steps=200
//                      --out=model.ckpt
//   focus_cli evaluate --data=data.csv --prototypes=protos.bin
//                      --model=model.ckpt --lookback=192 --horizon=96
//   focus_cli forecast --data=data.csv --prototypes=protos.bin
//                      --model=model.ckpt --lookback=192 --horizon=96
//                      [--entity=0] [--window=-1]
//
// The offline artifacts (CSV data, prototype file, checkpoint) are exactly
// what a production deployment would move between the offline clustering
// job and the online forecasting service.
#include <cstdio>
#include <memory>

#include "cluster/segment_clustering.h"
#include "core/focus_model.h"
#include "data/generator.h"
#include "data/io.h"
#include "data/registry.h"
#include "harness/ascii_plot.h"
#include "harness/experiments.h"
#include "nn/serialize.h"
#include "obs/prof/run_report.h"
#include "obs/trace.h"
#include "utils/flags.h"

namespace {

using namespace focus;

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::printf(
      "usage: focus_cli <generate|cluster|train|evaluate|forecast> "
      "[--flags]\n"
      "  generate --dataset=<PEMS04|...|Weather> --out=FILE "
      "[--profile=quick|full] [--seed=N]\n"
      "  cluster  --data=FILE --out=FILE [--p=16] [--k=16] [--alpha=0.2] "
      "[--rec-only]\n"
      "  train    --data=FILE --prototypes=FILE --out=FILE [--lookback=192] "
      "[--horizon=96]\n"
      "           [--d=32] [--steps=200] [--batch=6] [--lr=0.01] [--seed=1]\n"
      "  evaluate --data=FILE --prototypes=FILE --model=FILE "
      "[--lookback=192] [--horizon=96]\n"
      "  forecast --data=FILE --prototypes=FILE --model=FILE "
      "[--lookback=192] [--horizon=96]\n"
      "           [--entity=0] [--window=-1]\n"
      "common flags:\n"
      "  --trace[=FILE]              write a Chrome span trace on exit "
      "(default trace.json)\n"
      "  --report                    print a top-span run report on exit\n"
      "  --report-json=FILE          also write the run report as JSON\n");
  return 2;
}

harness::PreparedData LoadPrepared(const std::string& path) {
  auto loaded = data::LoadCsv(path);
  FOCUS_CHECK(loaded.ok()) << loaded.status().ToString();
  return harness::PrepareDataset(std::move(loaded).value());
}

core::FocusConfig ModelConfig(const FlagParser& flags,
                              const harness::PreparedData& data,
                              const Tensor& prototypes) {
  core::FocusConfig cfg;
  cfg.lookback = flags.GetInt("lookback", 192);
  cfg.horizon = flags.GetInt("horizon", 96);
  cfg.num_entities = data.dataset.num_entities();
  cfg.patch_len = prototypes.size(1);
  cfg.d_model = flags.GetInt("d", 32);
  cfg.readout_queries = harness::ReadoutQueriesFor(cfg.horizon);
  cfg.alpha = static_cast<float>(flags.GetDouble("alpha", 0.2));
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  return cfg;
}

int RunGenerate(const FlagParser& flags) {
  const std::string name = flags.GetString("dataset", "");
  const std::string out = flags.GetString("out", "");
  if (name.empty() || out.empty()) return Usage();
  const auto profile = flags.GetString("profile", "quick") == "full"
                           ? data::Profile::kFull
                           : data::Profile::kQuick;
  auto cfg = data::PaperDatasetConfig(
      name, profile, static_cast<uint64_t>(flags.GetInt("seed", 0)));
  auto dataset = data::Generate(cfg);
  Status status = data::SaveCsv(dataset, out);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("wrote %s: %ld entities x %ld steps\n", out.c_str(),
              static_cast<long>(dataset.num_entities()),
              static_cast<long>(dataset.num_steps()));
  return 0;
}

int RunCluster(const FlagParser& flags) {
  const std::string data_path = flags.GetString("data", "");
  const std::string out = flags.GetString("out", "");
  if (data_path.empty() || out.empty()) return Usage();
  auto data = LoadPrepared(data_path);

  cluster::ClusteringConfig cc;
  cc.segment_length = flags.GetInt("p", 16);
  cc.num_prototypes = flags.GetInt("k", 16);
  cc.alpha = static_cast<float>(flags.GetDouble("alpha", 0.2));
  cc.use_correlation = !flags.Has("rec-only");
  cc.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  Tensor train_region = Slice(data.normalized, 1, 0, data.splits.train_end);
  Tensor segments = cluster::ExtractSegments(train_region, cc.segment_length,
                                             /*normalize=*/true);
  auto result = cluster::SegmentClustering(cc).Fit(segments);
  std::printf("clustered %ld segments into %ld prototypes in %ld iterations "
              "(%.2fs); objective %.4f\n",
              static_cast<long>(segments.size(0)),
              static_cast<long>(cc.num_prototypes),
              static_cast<long>(result.iterations), result.seconds,
              result.objective_history.back());
  Status status = cluster::SavePrototypes(out, result.prototypes);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int RunTrain(const FlagParser& flags) {
  const std::string data_path = flags.GetString("data", "");
  const std::string proto_path = flags.GetString("prototypes", "");
  const std::string out = flags.GetString("out", "");
  if (data_path.empty() || proto_path.empty() || out.empty()) return Usage();
  auto data = LoadPrepared(data_path);
  auto protos = cluster::LoadPrototypes(proto_path);
  if (!protos.ok()) return Fail(protos.status().ToString());

  auto cfg = ModelConfig(flags, data, protos.value());
  core::FocusModel model(cfg, protos.value());
  std::printf("FOCUS: %ld parameters, l=%ld tokens of p=%ld\n",
              static_cast<long>(model.NumParameters()),
              static_cast<long>(cfg.lookback / cfg.patch_len),
              static_cast<long>(cfg.patch_len));

  auto train = harness::TrainWindows(data, cfg.lookback, cfg.horizon);
  auto val = harness::ValWindows(data, cfg.lookback, cfg.horizon);
  harness::TrainConfig tc;
  tc.max_steps = flags.GetInt("steps", 200);
  tc.batch_size = flags.GetInt("batch", 6);
  tc.lr = static_cast<float>(flags.GetDouble("lr", 0.01));
  tc.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  tc.val = &val;
  tc.verbose = flags.GetBool("verbose", false);
  auto result = harness::TrainModel(model, train, tc);
  std::printf("trained %ld steps in %.1fs: loss %.4f -> %.4f, best val MSE "
              "%.4f%s\n",
              static_cast<long>(result.steps), result.seconds,
              result.first_loss, result.final_loss, result.best_val_mse,
              result.early_stopped ? " (early stopped)" : "");
  Status status = nn::SaveStateDict(model, out);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

// Shared by evaluate / forecast.
std::unique_ptr<core::FocusModel> LoadModel(const FlagParser& flags,
                                            const harness::PreparedData& data,
                                            Tensor prototypes,
                                            std::string* error) {
  auto cfg = ModelConfig(flags, data, prototypes);
  auto model = std::make_unique<core::FocusModel>(cfg, std::move(prototypes));
  Status status = nn::LoadStateDict(*model, flags.GetString("model", ""));
  if (!status.ok()) {
    *error = status.ToString();
    return nullptr;
  }
  model->SetTraining(false);
  return model;
}

int RunEvaluate(const FlagParser& flags) {
  const std::string data_path = flags.GetString("data", "");
  const std::string proto_path = flags.GetString("prototypes", "");
  if (data_path.empty() || proto_path.empty() || !flags.Has("model")) {
    return Usage();
  }
  auto data = LoadPrepared(data_path);
  auto protos = cluster::LoadPrototypes(proto_path);
  if (!protos.ok()) return Fail(protos.status().ToString());
  std::string error;
  auto model = LoadModel(flags, data, protos.value(), &error);
  if (!model) return Fail(error);

  auto test = harness::TestWindows(data, model->config().lookback,
                                   model->config().horizon);
  auto metrics = harness::EvaluateModel(*model, test, 8, 1);
  std::printf("test windows: %ld\n", static_cast<long>(test.NumWindows()));
  std::printf("MSE %.4f  MAE %.4f  RMSE %.4f\n", metrics.mse, metrics.mae,
              metrics.rmse);
  return 0;
}

int RunForecast(const FlagParser& flags) {
  const std::string data_path = flags.GetString("data", "");
  const std::string proto_path = flags.GetString("prototypes", "");
  if (data_path.empty() || proto_path.empty() || !flags.Has("model")) {
    return Usage();
  }
  auto data = LoadPrepared(data_path);
  auto protos = cluster::LoadPrototypes(proto_path);
  if (!protos.ok()) return Fail(protos.status().ToString());
  std::string error;
  auto model = LoadModel(flags, data, protos.value(), &error);
  if (!model) return Fail(error);

  auto test = harness::TestWindows(data, model->config().lookback,
                                   model->config().horizon);
  long window = flags.GetInt("window", -1);
  if (window < 0) window = test.NumWindows() / 2;
  const long entity = flags.GetInt("entity", 0);
  FOCUS_CHECK(entity >= 0 && entity < data.dataset.num_entities());
  auto batch = test.GetWindow(window);
  NoGradGuard no_grad;
  Tensor pred = model->Forward(batch.x);

  const int64_t horizon = model->config().horizon;
  std::vector<double> truth, forecast;
  for (int64_t i = 0; i < horizon; ++i) {
    truth.push_back(batch.y.At({0, entity, i}));
    forecast.push_back(pred.At({0, entity, i}));
  }
  std::printf("entity %ld, test window %ld, next %ld steps:\n", entity,
              window, static_cast<long>(horizon));
  std::printf("%s", harness::AsciiChart({truth, forecast},
                                        {"observed", "forecast"})
                        .c_str());
  auto metrics = metrics::ComputeMetrics(pred, batch.y);
  std::printf("window MSE %.4f MAE %.4f (all entities)\n", metrics.mse,
              metrics.mae);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  obs::ApplyTraceFlag(flags);
  obs::prof::ApplyReportFlag(flags);
  if (flags.positional().empty()) return Usage();
  const std::string& command = flags.positional()[0];
  if (command == "generate") return RunGenerate(flags);
  if (command == "cluster") return RunCluster(flags);
  if (command == "train") return RunTrain(flags);
  if (command == "evaluate") return RunEvaluate(flags);
  if (command == "forecast") return RunForecast(flags);
  return Usage();
}
