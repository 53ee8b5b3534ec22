#include "util/record_file.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "util/failpoint.h"
#include "test_dir.h"

namespace sepriv {
namespace {

constexpr uint64_t kMagic = 0x5453455452434552ULL;
constexpr uint64_t kVersion = 3;

class RecordFileTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::ClearAll(); }

  /// Publishes a record of one u64, one double, a counted byte string and
  /// `extra` trailing bytes under `magic`/`version`.
  std::string Write(const std::string& name, uint64_t magic = kMagic,
                    uint64_t version = kVersion, size_t extra = 0) {
    const std::string path = tmp_ / name;
    RecordWriter w(magic, version);
    w.Put(uint64_t{42});
    w.Put(2.5);
    const std::string text = "spxs";
    w.Put(static_cast<uint64_t>(text.size()));
    w.PutBytes(text.data(), text.size());
    for (size_t i = 0; i < extra; ++i) w.Put(uint8_t{7});
    EXPECT_TRUE(w.Publish(path, "record_test").ok());
    return path;
  }

  static void FlipByte(const std::string& path, size_t offset) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x40);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&c, 1);
  }

  const TestDir tmp_;
};

TEST_F(RecordFileTest, RoundTripReadsEveryFieldAndEndsExactly) {
  const std::string path = Write("ok.rec");
  // magic + version + u64 + f64 + count + 4 bytes + digest trailer.
  EXPECT_EQ(std::filesystem::file_size(path), 6 * sizeof(uint64_t) + 4);

  RecordReader r;
  ASSERT_TRUE(r.Open(path, kMagic, kVersion, "record_test").ok());
  EXPECT_EQ(r.Get<uint64_t>(), 42u);
  EXPECT_EQ(r.Get<double>(), 2.5);
  std::string text(r.GetCount(1), '\0');
  ASSERT_TRUE(r.GetBytes(text.data(), text.size()));
  EXPECT_EQ(text, "spxs");
  EXPECT_TRUE(r.Done());

  // A read past the payload trips the sticky flag and yields zero.
  EXPECT_EQ(r.Get<uint64_t>(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.Done());
}

TEST_F(RecordFileTest, FrameRejectsRotMagicVersionAndShortFiles) {
  RecordReader r;
  EXPECT_EQ(r.Open(tmp_ / "missing.rec", kMagic, kVersion, nullptr).code(),
            StatusCode::kNotFound);

  // Every byte, the trailer and the magic included, is under the digest.
  for (size_t offset : {0ul, 20ul, 47ul}) {
    const std::string path = Write("rot.rec");
    FlipByte(path, offset);
    EXPECT_EQ(r.Open(path, kMagic, kVersion, nullptr).code(),
              StatusCode::kCorruption)
        << offset;
  }

  const std::string foreign = Write("foreign.rec", kMagic + 1);
  EXPECT_EQ(r.Open(foreign, kMagic, kVersion, nullptr).code(),
            StatusCode::kCorruption);
  const std::string old = Write("old.rec", kMagic, kVersion - 1);
  EXPECT_EQ(r.Open(old, kMagic, kVersion, nullptr).code(),
            StatusCode::kCorruption);

  const std::string shorty = Write("short.rec");
  std::filesystem::resize_file(shorty, 2 * sizeof(uint64_t));
  EXPECT_EQ(r.Open(shorty, kMagic, kVersion, nullptr).code(),
            StatusCode::kCorruption);

  // A torn read is caught by the digest before any field is trusted.
  const std::string torn = Write("torn.rec");
  ASSERT_TRUE(failpoint::SetSpec("record_test.read=torn"));
  EXPECT_EQ(r.Open(torn, kMagic, kVersion, "record_test").code(),
            StatusCode::kCorruption);
}

TEST_F(RecordFileTest, CountBeyondTheBytesLeftIsRejectedBeforeUse) {
  const std::string path = tmp_ / "count.rec";
  RecordWriter w(kMagic, kVersion);
  w.Put(~uint64_t{0} / 7 + 2);  // count * 8 would wrap
  w.Put(uint64_t{1});
  ASSERT_TRUE(w.Publish(path, nullptr).ok());

  RecordReader r;
  ASSERT_TRUE(r.Open(path, kMagic, kVersion, nullptr).ok());
  EXPECT_EQ(r.GetCount(sizeof(uint64_t)), 0u);
  EXPECT_FALSE(r.ok());
}

TEST_F(RecordFileTest, TrailingBytesAreNotDone) {
  const std::string path = Write("trailing.rec", kMagic, kVersion, 3);
  RecordReader r;
  ASSERT_TRUE(r.Open(path, kMagic, kVersion, nullptr).ok());
  r.Get<uint64_t>();
  r.Get<double>();
  std::string text(r.GetCount(1), '\0');
  r.GetBytes(text.data(), text.size());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_FALSE(r.Done());
}

}  // namespace
}  // namespace sepriv
