// Fixture: the unchecked-io rule — statements that discard the bool/Status
// result of the repo's IO entry points fire; every consuming shape stays
// clean; a justified suppression silences; `(void)` does not exempt.

namespace fixture {

struct Status {
  bool ok() const { return true; }
};

struct PageFile {
  bool ReadPage(unsigned long page, void* out) const;
  bool WritePage(unsigned long page, const void* data);
  bool Sync();
  Status TryReadPage(unsigned long page, void* out) const;
  static Status TryReadPrefix(const char* path, unsigned long n, void* out);
  Status TrySync();
};

struct Writer {
  bool Append(int sample, double weight);
  bool Finish();
  const Status& status() const;
};

struct RecordWriter {
  Status Publish(const char* path, const char* failpoint_base);
};

struct RecordReader {
  Status Open(const char* path, unsigned long magic, unsigned long version,
              const char* failpoint_base);
  Status Parse(const char* bytes, unsigned long magic, unsigned long version,
               const char* name);
};

Status SaveCheckpoint(const int& ckpt, const char* path);
Status TryOpen(const char* path, unsigned long budget_pages, void* out);
Status WriteFileAtomic(const char* path, const void* data, unsigned long n,
                       const char* failpoint_base);

// --- Violations: the result is the only failure channel ---------------------

void DiscardsEverywhere(PageFile& file, Writer& writer, char* buf) {
  file.WritePage(0, buf);  // expect-lint: unchecked-io
  file.Sync();  // expect-lint: unchecked-io
  writer.Append(7, 0.5);  // expect-lint: unchecked-io
  writer.Finish();  // expect-lint: unchecked-io
  SaveCheckpoint(3, "ckpt.bin");  // expect-lint: unchecked-io
  WriteFileAtomic("f", buf, 8, "site");  // expect-lint: unchecked-io
  TryOpen("samples.bin", 2, buf);  // expect-lint: unchecked-io
}

void DiscardsRecordResults(RecordWriter& w, RecordReader* r) {
  w.Publish("f.bin", "site");  // expect-lint: unchecked-io
  r->Open("f.bin", 1, 2, "site");  // expect-lint: unchecked-io
  r->Parse("bytes", 1, 2, "header");  // expect-lint: unchecked-io
  PageFile::TryReadPrefix("f.bin", 64, nullptr);  // expect-lint: unchecked-io
}

void PointerChainsAndVoidCasts(PageFile* file, Writer* writer, char* buf) {
  file->ReadPage(1, buf);  // expect-lint: unchecked-io
  file->TrySync();  // expect-lint: unchecked-io
  // Casting to void silences -Wunused-result, not the lost error.
  (void)writer->Finish();  // expect-lint: unchecked-io
}

// --- Clean: every shape that consumes the result ----------------------------

bool ConsumesResults(PageFile& file, Writer& writer, char* buf) {
  bool ok = file.ReadPage(0, buf);       // assignment
  ok = writer.Append(1, 2.0) && ok;      // expression operand
  if (!file.Sync()) return false;        // condition
  while (writer.Append(2, 1.0)) break;   // loop condition
  const Status publish = SaveCheckpoint(9, "ckpt.bin");
  if (!publish.ok()) return false;
  return writer.Finish();                // return value
}

Status PropagatesStatus(PageFile& file, char* buf) {
  return file.TryReadPage(4, buf);  // returned, not discarded
}

bool ConsumesRecordResults(RecordWriter& w, RecordReader& r) {
  if (!r.Open("f.bin", 1, 2, "site").ok()) return false;
  if (!r.Parse("bytes", 1, 2, "header").ok()) return false;
  if (!PageFile::TryReadPrefix("f.bin", 64, nullptr).ok()) return false;
  return w.Publish("f.bin", "site").ok();
}

// Declarations and definitions never match: the return type sits where a
// statement boundary would be.
bool Finish();
Status TrySync();

// Unrelated names that merely resemble IO verbs stay clean.
struct Blob {
  void append(char c);
};
void DomainVerbs(Blob& blob) {
  blob.append('x');  // lowercase std-style append, not the writer's
}

// A justified suppression on the line above covers the call.
void SuppressedBestEffort(PageFile& file) {
  // sepriv-lint: allow(unchecked-io): best-effort cache warm; failure only
  file.Sync();
}

}  // namespace fixture
