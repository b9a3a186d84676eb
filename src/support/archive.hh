/**
 * @file
 * Archives: the only code that walks a component's field list.
 *
 * Every stateful component names its state once, in image order, in
 * a member `template <class A> void fields(A &a)` beside the members
 * it names.  The saver writes each field onto a Serializer, the loader
 * reads it back from a Deserializer, and the walker yields each
 * field's dotted name ("cpu.ebox.memIssued_") with the bytes the saver
 * writes for it.  A list can say:
 *
 *   a("upc_", upc_)               a field, encoded by its type (below)
 *   a.section("cpu", body)        a CRC-checked section around body()
 *   a.check("cache ways", ways_)  a configuration fingerprint: restore
 *                                 requires it to equal this machine's
 *   a.vec("trapStack_", v, 64)    a u64 length, bounded on restore,
 *                                 then the elements
 *   a.blob("normal", v)           a zero-run-length-encoded bulk image
 *   a.codec("psl_", get, set)     a value not stored as itself
 *   A::loading                    true in the loader only
 *
 * Integers, enums, bool and double are little-endian at their width;
 * strings and byte arrays carry a u64 length; other arrays and vectors
 * go element by element at the machine's own length; a counter record
 * (support/counters.hh) goes through its fields[] table, a component
 * through its fields(), or a free fields(A &, T &) where the member
 * name is taken.  A SnapshotError the loader raises names the field
 * it was reading (a damaged section header names its section), and it
 * checks every length against the machine's before it allocates.
 */

#ifndef UPC780_SUPPORT_ARCHIVE_HH
#define UPC780_SUPPORT_ARCHIVE_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/logging.hh"
#include "support/snapshot.hh"

namespace vax::snap
{

/** Where an archive is: the section, then member names and element
 *  indices.  Kept as segments, so a walk builds no strings; str()
 *  spells the dotted name ("cpu.ebox.trapStack_[0].va"). */
class FieldPath
{
  public:
    void push(const char *name) { at(depth_++) = {name, 0}; }
    void pushIndex(size_t i) { at(depth_++) = {nullptr, i}; }
    void pop() { --depth_; }
    std::string str() const;
    /** True when str() would equal dotted (without building it). */
    bool is(std::string_view dotted) const;

  private:
    struct Seg
    {
        const char *name; ///< null for an element index
        size_t index;
    };

    Seg &
    at(unsigned i)
    {
        upc_assert(i < std::size(segs_));
        return segs_[i];
    }

    Seg segs_[8];
    unsigned depth_ = 0;
};

/** Raise the loader's SnapshotError for the field at path. */
[[noreturn]] void failField(const FieldPath &path, const std::string &what);

namespace detail
{

template <class T, class A>
concept Listed = requires(T &t, A &a) { t.fields(a); };
template <class T, class A>
concept ListedFree = requires(T &t, A &a) { fields(a, t); };
template <class T>
concept CounterRecord = requires { std::size(T::fields); };
template <class T>
concept Sequence = !std::is_same_v<T, std::string> &&
    requires(T &v) { std::size(v); v[0]; };
template <class T>
concept Bytes = Sequence<T> &&
    std::is_same_v<std::remove_cvref_t<decltype(std::declval<T &>()[0])>,
                   uint8_t>;

template <class T>
void
put(Serializer &s, const T &v)
{
    if constexpr (std::is_enum_v<T>)
        put(s, static_cast<std::underlying_type_t<T>>(v));
    else if constexpr (std::is_same_v<T, bool>)
        s.putBool(v);
    else if constexpr (std::is_same_v<T, double>)
        s.putDouble(v);
    else if constexpr (std::is_same_v<T, std::string>)
        s.putString(v);
    else if constexpr (sizeof(T) == 1)
        s.putU8(v);
    else if constexpr (sizeof(T) == 2)
        s.putU16(v);
    else if constexpr (sizeof(T) == 4)
        s.putU32(v);
    else if constexpr (std::is_signed_v<T>)
        s.putI64(v);
    else
        s.putU64(v);
}

template <class T>
T
get(Deserializer &d)
{
    if constexpr (std::is_enum_v<T>)
        return static_cast<T>(get<std::underlying_type_t<T>>(d));
    else if constexpr (std::is_same_v<T, bool>)
        return d.getBool();
    else if constexpr (std::is_same_v<T, double>)
        return d.getDouble();
    else if constexpr (std::is_same_v<T, std::string>)
        return d.getString();
    else if constexpr (sizeof(T) == 1)
        return d.getU8();
    else if constexpr (sizeof(T) == 2)
        return d.getU16();
    else if constexpr (sizeof(T) == 4)
        return d.getU32();
    else if constexpr (std::is_signed_v<T>)
        return d.getI64();
    else
        return static_cast<T>(d.getU64());
}

template <class T>
std::string
quote(const T &v)
{
    if constexpr (std::is_same_v<T, std::string>)
        return "'" + v + "'";
    else
        return std::to_string(static_cast<uint64_t>(v));
}

} // namespace detail

/**
 * What every archive does with a list.  Derived supplies the I/O:
 * open and close a section, value, bytes and rle for one field, and
 * bulk() (whether blobs are read at all).
 */
template <class Derived>
class Archive
{
  public:
    /** One field, encoded by its type. */
    template <class T>
    void
    operator()(const char *name, T &v)
    {
        path_.push(name);
        visit(v);
        path_.pop();
    }

    /** A value at the current path (the root object, or an element). */
    template <class T>
    void
    visit(T &v)
    {
        if constexpr (detail::Listed<T, Derived>) {
            v.fields(self());
        } else if constexpr (detail::ListedFree<T, Derived>) {
            fields(self(), v);
        } else if constexpr (detail::CounterRecord<T>) {
            counters(v);
        } else if constexpr (detail::Bytes<T>) {
            self().bytes(std::data(v), std::size(v));
        } else if constexpr (detail::Sequence<T>) {
            for (size_t i = 0; i < std::size(v); ++i) {
                path_.pushIndex(i);
                visit(v[i]);
                path_.pop();
            }
        } else {
            self().value(v);
        }
    }

    /** A counter record's own counters, through its fields[] table. */
    template <class R>
    void
    counters(R &rec)
    {
        for (const auto &c : R::fields)
            (*this)(c.name, rec.*c.member);
    }

    template <class Body>
    void
    section(const char *name, Body body)
    {
        self().open(name);
        path_.push(name);
        body();
        path_.pop();
        self().close();
    }

    template <class T>
    void
    check(const char *name, const T &want)
    {
        path_.push(name);
        T v = want;
        self().value(v);
        if (v != want)
            failField(path_, "is " + detail::quote(v) +
                          " in the snapshot but " + detail::quote(want) +
                          " in this machine (snapshot from a different "
                          "configuration)");
        path_.pop();
    }

    template <class V>
    void
    vec(const char *name, V &v, size_t bound)
    {
        path_.push(name);
        uint64_t n = v.size();
        self().value(n);
        if (n > bound)
            failField(path_, "length " + std::to_string(n) +
                          " exceeds its bound of " + std::to_string(bound));
        v.resize(static_cast<size_t>(n));
        for (size_t i = 0; i < v.size(); ++i) {
            path_.pushIndex(i);
            visit(v[i]);
            path_.pop();
        }
        path_.pop();
    }

    /** Readers encode get(); the loader decodes and hands it to set(). */
    template <class Get, class Set>
    void
    codec(const char *name, Get get, Set set)
    {
        if constexpr (Derived::loading) {
            std::decay_t<std::invoke_result_t<Get &>> v{};
            (*this)(name, v);
            set(std::move(v));
        } else {
            auto v = get();
            (*this)(name, v);
        }
    }

    void
    blob(const char *name, std::vector<uint64_t> &v)
    {
        if (!self().bulk())
            return;
        path_.push(name);
        self().rle(v);
        path_.pop();
    }

    /** Guest memory: readers prepare() it first, the loader adopt()s
     *  what it wrote. */
    template <class Prepare, class Adopt>
    void
    blob(const char *name, uint8_t *data, size_t n, Prepare prepare,
         Adopt adopt)
    {
        if (!self().bulk())
            return;
        if constexpr (!Derived::loading)
            prepare();
        path_.push(name);
        self().rle(data, n);
        path_.pop();
        if constexpr (Derived::loading)
            adopt();
    }

  protected:
    Derived &self() { return static_cast<Derived &>(*this); }

    FieldPath path_;
};

/** No per-field sink: the plain saver. */
struct NoSink {};

/**
 * Writes fields onto a Serializer: the saver, or with a Sink (called
 * with each field's path and bytes) the walker, which keeps one
 * scratch section open and reads blobs only when asked.
 */
template <class Sink>
class Writer : public Archive<Writer<Sink>>
{
    static constexpr bool saver = std::is_same_v<Sink, NoSink>;

  public:
    static constexpr bool loading = false;

    explicit Writer(Serializer &s, Sink sink = {}, bool bulk = true)
        : s_(s), sink_(sink), bulk_(bulk) {}

    void
    open(const char *name)
    {
        if constexpr (saver)
            s_.beginSection(name);
    }

    void
    close()
    {
        if constexpr (saver)
            s_.endSection();
    }

    bool bulk() const { return bulk_; }

    template <class T>
    void
    value(const T &v)
    {
        io([&] { detail::put(s_, v); });
    }

    void bytes(const uint8_t *p, size_t n) { io([&] { s_.putBytes(p, n); }); }
    void rle(const std::vector<uint64_t> &v) { io([&] { s_.putVecU64(v); }); }
    void rle(const uint8_t *p, size_t n) { io([&] { s_.putBytesRle(p, n); }); }

  private:
    template <class Put>
    void
    io(Put put)
    {
        size_t at = s_.size();
        put();
        if constexpr (!saver)
            sink_(this->path_, s_.since(at));
    }

    Serializer &s_;
    Sink sink_;
    bool bulk_;
};

/** Reads fields back from a Deserializer into the machine. */
class Loader : public Archive<Loader>
{
  public:
    static constexpr bool loading = true;

    explicit Loader(Deserializer &d) : d_(d) {}

    void open(const char *name) { d_.beginSection(name); }
    /** Leftover section bytes name the last field read. */
    void close();
    bool bulk() const { return true; }

    template <class T>
    void
    value(T &v)
    {
        io([&] { v = detail::get<T>(d_); });
    }

    void bytes(uint8_t *p, size_t n) { io([&] { d_.getBytes(p, n); }); }
    void rle(std::vector<uint64_t> &v) { io([&] { d_.getVecU64(v); }); }
    void rle(uint8_t *p, size_t n) { io([&] { d_.getBytesRle(p, n); }); }

  private:
    /** A Deserializer read whose error names the field. */
    template <class Get>
    void
    io(Get get)
    {
        try {
            get();
        } catch (const SnapshotError &e) {
            failField(path_, e.what());
        }
        last_ = path_;
    }

    Deserializer &d_;
    FieldPath last_;
};

/** Write obj's fields onto s.  fields() is not const, because the same
 *  list restores; writing only reads through it. */
template <class T>
void
save(Serializer &s, const T &obj)
{
    Writer<NoSink>(s).visit(const_cast<T &>(obj));
}

/** Read obj's fields back from d. */
template <class T>
void
restore(Deserializer &d, T &obj)
{
    Loader(d).visit(obj);
}

/**
 * Call yield(path, bytes) for each field of obj, in image order, with
 * the bytes save() writes for it.  Blobs (guest memory, histogram
 * banks, RTE clocks) come only with bulk, and yielding guest memory
 * first builds every pending image, as save() does.
 */
template <class T, class Yield>
void
walk(const T &obj, Yield &&yield, bool bulk = false)
{
    Serializer scratch;
    scratch.beginSection("walk");
    Writer<Yield &>(scratch, yield, bulk).visit(const_cast<T &>(obj));
}

} // namespace vax::snap

#endif // UPC780_SUPPORT_ARCHIVE_HH
