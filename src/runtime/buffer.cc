#include "runtime/buffer.h"

#include "support/logging.h"

namespace hpcmixp::runtime {

Buffer::Buffer(std::size_t elements, Precision p)
    : precision_(p), size_(elements)
{
    switch (p) {
    case Precision::BFloat16:
        bf16_.assign(elements, BFloat16{});
        break;
    case Precision::Float16:
        f16_.assign(elements, Half{});
        break;
    case Precision::Float32:
        f32_.assign(elements, 0.0f);
        break;
    case Precision::Float64:
        f64_.assign(elements, 0.0);
        break;
    }
}

Buffer::Buffer(std::vector<double> values)
    : precision_(Precision::Float64), size_(values.size()),
      f64_(std::move(values))
{
}

void
Buffer::checkAccess(Precision wanted) const
{
    HPCMIXP_ASSERT(wanted == precision_,
                   support::strCat("typed access as ",
                                   precisionName(wanted),
                                   " on a ", precisionName(precision_),
                                   " buffer"));
}

double
Buffer::loadDouble(std::size_t i) const
{
    HPCMIXP_ASSERT(i < size_, "buffer index out of range");
    switch (precision_) {
    case Precision::BFloat16:
        return static_cast<double>(static_cast<float>(bf16_[i]));
    case Precision::Float16:
        return static_cast<double>(static_cast<float>(f16_[i]));
    case Precision::Float32:
        return static_cast<double>(f32_[i]);
    case Precision::Float64:
        break;
    }
    return f64_[i];
}

void
Buffer::storeDouble(std::size_t i, double value)
{
    HPCMIXP_ASSERT(i < size_, "buffer index out of range");
    switch (precision_) {
    case Precision::BFloat16:
        bf16_[i] = BFloat16(value);
        break;
    case Precision::Float16:
        f16_[i] = Half(value);
        break;
    case Precision::Float32:
        f32_[i] = static_cast<float>(value);
        break;
    case Precision::Float64:
        f64_[i] = value;
        break;
    }
}

void
Buffer::fillFrom(std::span<const double> values)
{
    HPCMIXP_ASSERT(values.size() == size_,
                   "fillFrom size mismatch");
    switch (precision_) {
    case Precision::BFloat16:
        for (std::size_t i = 0; i < size_; ++i)
            bf16_[i] = BFloat16(values[i]);
        break;
    case Precision::Float16:
        for (std::size_t i = 0; i < size_; ++i)
            f16_[i] = Half(values[i]);
        break;
    case Precision::Float32:
        for (std::size_t i = 0; i < size_; ++i)
            f32_[i] = static_cast<float>(values[i]);
        break;
    case Precision::Float64:
        for (std::size_t i = 0; i < size_; ++i)
            f64_[i] = values[i];
        break;
    }
}

void
Buffer::reshape(std::size_t elements, Precision p)
{
    precision_ = p;
    size_ = elements;
    // clear() keeps capacity, so every lane retains its high-water
    // allocation across precision flips.
    bf16_.clear();
    f16_.clear();
    f32_.clear();
    f64_.clear();
    switch (p) {
    case Precision::BFloat16:
        bf16_.assign(elements, BFloat16{});
        break;
    case Precision::Float16:
        f16_.assign(elements, Half{});
        break;
    case Precision::Float32:
        f32_.assign(elements, 0.0f);
        break;
    case Precision::Float64:
        f64_.assign(elements, 0.0);
        break;
    }
}

void
Buffer::copyFrom(const Buffer& src)
{
    precision_ = src.precision_;
    size_ = src.size_;
    bf16_.clear();
    f16_.clear();
    f32_.clear();
    f64_.clear();
    switch (precision_) {
    case Precision::BFloat16:
        bf16_.assign(src.bf16_.begin(), src.bf16_.end());
        break;
    case Precision::Float16:
        f16_.assign(src.f16_.begin(), src.f16_.end());
        break;
    case Precision::Float32:
        f32_.assign(src.f32_.begin(), src.f32_.end());
        break;
    case Precision::Float64:
        f64_.assign(src.f64_.begin(), src.f64_.end());
        break;
    }
}

std::vector<double>
Buffer::toDoubles() const
{
    // One pass: each element is widened straight into the new vector
    // (bf16 and half through their float conversion), never written
    // as a zero first.
    switch (precision_) {
    case Precision::BFloat16:
        return std::vector<double>(bf16_.begin(), bf16_.end());
    case Precision::Float16:
        return std::vector<double>(f16_.begin(), f16_.end());
    case Precision::Float32:
        return std::vector<double>(f32_.begin(), f32_.end());
    case Precision::Float64:
        return f64_;
    }
    return {};
}

Buffer
Buffer::fromDoubles(std::span<const double> values, Precision p)
{
    Buffer buf(values.size(), p);
    buf.fillFrom(values);
    return buf;
}

} // namespace hpcmixp::runtime
