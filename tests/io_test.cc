// Tests for CSV dataset I/O and the flag parser.
#include <fstream>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/io.h"
#include "tests/test_util.h"
#include "utils/flags.h"

namespace focus {
namespace {

TEST(CsvIoTest, RoundTripPreservesValuesAndMetadata) {
  data::GeneratorConfig gen;
  gen.name = "roundtrip";
  gen.domain = "Test";
  gen.frequency = "5 mins";
  gen.num_entities = 4;
  gen.num_steps = 120;
  gen.train_fraction = 0.6;
  gen.val_fraction = 0.2;
  gen.seed = 3;
  auto dataset = data::Generate(gen);

  const std::string path = ::testing::TempDir() + "/roundtrip.csv";
  ASSERT_TRUE(data::SaveCsv(dataset, path).ok());
  auto loaded = data::LoadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const auto& round = loaded.value();
  EXPECT_EQ(round.name, "roundtrip");
  EXPECT_EQ(round.domain, "Test");
  EXPECT_EQ(round.frequency, "5 mins");
  EXPECT_NEAR(round.train_fraction, 0.6, 1e-9);
  EXPECT_NEAR(round.val_fraction, 0.2, 1e-9);
  ASSERT_EQ(round.values.shape(), dataset.values.shape());
  // %.6g formatting: compare with a loose relative tolerance.
  for (int64_t i = 0; i < dataset.values.numel(); ++i) {
    EXPECT_NEAR(round.values.data()[i], dataset.values.data()[i],
                1e-4 * (1.0 + std::fabs(dataset.values.data()[i])));
  }
}

TEST(CsvIoTest, LoadsPlainCsvWithoutMetadata) {
  const std::string path = ::testing::TempDir() + "/plain.csv";
  std::ofstream out(path);
  out << "a,b\n1,2\n3,4\n5,6\n";
  out.close();
  auto loaded = data::LoadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().values.shape(), (Shape{2, 3}));
  EXPECT_EQ(loaded.value().values.At({0, 1}), 3.0f);  // entity a, step 1
  EXPECT_EQ(loaded.value().values.At({1, 2}), 6.0f);
}

TEST(CsvIoTest, RejectsMalformedFiles) {
  const std::string ragged = ::testing::TempDir() + "/ragged.csv";
  {
    std::ofstream out(ragged);
    out << "a,b\n1,2\n3\n";
  }
  EXPECT_EQ(data::LoadCsv(ragged).status().code(), Status::Code::kCorruption);

  const std::string non_numeric = ::testing::TempDir() + "/nonnum.csv";
  {
    std::ofstream out(non_numeric);
    out << "a,b\n1,2\nx,4\n";
  }
  EXPECT_EQ(data::LoadCsv(non_numeric).status().code(),
            Status::Code::kCorruption);

  EXPECT_EQ(data::LoadCsv("/no/such/file.csv").status().code(),
            Status::Code::kNotFound);

  const std::string empty = ::testing::TempDir() + "/empty.csv";
  { std::ofstream out(empty); }
  EXPECT_EQ(data::LoadCsv(empty).status().code(), Status::Code::kCorruption);

  // Split fractions must be finite numbers in (0, 1) with train + val < 1.
  const std::string bad_meta = ::testing::TempDir() + "/badmeta.csv";
  for (const char* meta :
       {"train=abc", "val=abc", "train=", "train=0.7x", "train=nan",
        "train=inf", "train=0", "train=1", "val=-0.1", "train=1e400",
        "train=0.8|val=0.2", "train=0.9|val=0.3"}) {
    {
      std::ofstream out(bad_meta);
      out << "#name=x|" << meta << "\na,b\n1,2\n3,4\n5,6\n";
    }
    EXPECT_EQ(data::LoadCsv(bad_meta).status().code(),
              Status::Code::kCorruption)
        << meta;
  }
}

TEST(FlagParserTest, ParsesAllForms) {
  const char* argv[] = {"prog",        "train",        "--steps=50",
                        "--lr",        "0.01",         "--verbose",
                        "--name=test", "positional2"};
  FlagParser flags(8, argv);
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "train");
  EXPECT_EQ(flags.positional()[1], "positional2");
  EXPECT_EQ(flags.GetInt("steps", 0), 50);
  EXPECT_NEAR(flags.GetDouble("lr", 0.0), 0.01, 1e-12);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetString("name", ""), "test");
  EXPECT_TRUE(flags.Has("verbose"));
  EXPECT_FALSE(flags.Has("absent"));
}

TEST(FlagParserTest, FallbacksApplyOnMissingOrUnparsable) {
  const char* argv[] = {"prog", "--num=abc", "--empty="};
  FlagParser flags(3, argv);
  EXPECT_EQ(flags.GetInt("num", 7), 7);       // unparsable
  EXPECT_EQ(flags.GetInt("empty", 5), 5);     // empty value
  EXPECT_EQ(flags.GetDouble("empty", 2.5), 2.5);
  EXPECT_EQ(flags.GetInt("missing", 9), 9);   // missing
  EXPECT_EQ(flags.GetString("num", "x"), "abc");
  EXPECT_FALSE(flags.GetBool("missing", false));
  EXPECT_TRUE(flags.GetBool("missing", true));
}

TEST(FlagParserTest, BareFlagBeforeFlagIsBoolean) {
  const char* argv[] = {"prog", "--a", "--b=2"};
  FlagParser flags(3, argv);
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_EQ(flags.GetInt("b", 0), 2);
}

}  // namespace
}  // namespace focus
