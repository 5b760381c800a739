// Root-directory namespace tests: every file lives in one flat root.

#include "src/ufs/ufs.h"

#include <gtest/gtest.h>

namespace crufs {
namespace {

TEST(UfsDirectory, CreateRequiresParent) {
  // No subdirectory can exist, so a name under one is refused and neither
  // the file nor its would-be parent is made.
  Ufs fs;
  auto result = fs.Create("nosuchdir/file");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), crbase::StatusCode::kInvalidArgument);
  EXPECT_EQ(fs.Lookup("nosuchdir/file").status().code(), crbase::StatusCode::kNotFound);
  EXPECT_EQ(fs.Lookup("nosuchdir").status().code(), crbase::StatusCode::kNotFound);
}

TEST(UfsDirectory, PathValidation) {
  Ufs fs;
  EXPECT_EQ(fs.Create("/leading").status().code(), crbase::StatusCode::kInvalidArgument);
  EXPECT_EQ(fs.Create("trailing/").status().code(), crbase::StatusCode::kInvalidArgument);
  EXPECT_EQ(fs.Create("a//b").status().code(), crbase::StatusCode::kInvalidArgument);
  EXPECT_EQ(fs.Create("a/../b").status().code(), crbase::StatusCode::kInvalidArgument);
  EXPECT_EQ(fs.Create(".").status().code(), crbase::StatusCode::kInvalidArgument);
}

TEST(UfsDirectory, NameCollisionsAcrossKinds) {
  // Files are the only kind left: a taken name is refused without touching
  // the file that holds it, and removing that file frees the name.
  Ufs fs;
  auto x = fs.Create("x");
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(fs.Create("x").status().code(), crbase::StatusCode::kAlreadyExists);
  auto found = fs.Lookup("x");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *x);
  ASSERT_TRUE(fs.Remove("x").ok());
  EXPECT_TRUE(fs.Create("x").ok());
}

}  // namespace
}  // namespace crufs
