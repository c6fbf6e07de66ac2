//! Business archetypes: the generative grammar of the synthetic city.
//!
//! An archetype fixes a POI's Yelp-style category string, the words its
//! name may contain, its *core* concepts (always present) and a pool of
//! *optional* concepts (sampled per POI). Optional concepts are what make
//! same-category POIs semantically distinct — the "variety of sushi
//! options" that separates one Japanese restaurant from another.

/// One business archetype.
#[derive(Debug, Clone, Copy)]
pub struct Archetype {
    /// Stable key.
    pub key: &'static str,
    /// Yelp-style `categories` attribute value.
    pub categories: &'static str,
    /// Words usable in generated names ("Grill", "Tap House", …).
    pub type_words: &'static [&'static str],
    /// Concept names every POI of this archetype holds.
    pub core: &'static [&'static str],
    /// Concept-name pool sampled per POI (2–4 picks).
    pub optional: &'static [&'static str],
    /// Sampling weight (relative frequency in a city).
    pub weight: u32,
}

/// Service/amenity concepts any POI may additionally pick up.
pub(crate) const GLOBAL_OPTIONAL: &[&str] = &[
    "friendly-staff",
    "fast-service",
    "affordable-prices",
    "clean-space",
    "long-waits",
    "popular-busy",
    "parking-available",
    "takeout-delivery",
    "family-friendly",
    "outdoor-seating",
    "free-wifi",
    "large-portions",
    "late-night-hours",
    "open-early",
    "wheelchair-accessible",
];

/// The archetype catalogue (~40 business kinds, food-heavy like Yelp).
pub(crate) const ARCHETYPES: &[Archetype] = &[
    Archetype {
        key: "sports_bar",
        categories: "Bars, Sports Bars, American (Traditional), Nightlife",
        type_words: &["Bar & Grill", "Sports Bar", "Taproom", "Grill"],
        core: &["live-sports-viewing", "bar-venue", "beer-selection"],
        optional: &[
            "chicken-wings",
            "burgers",
            "billiards-darts",
            "trivia-night",
            "craft-beer",
            "whiskey-selection",
        ],
        weight: 5,
    },
    Archetype {
        key: "dive_bar",
        categories: "Bars, Dive Bars, Nightlife",
        type_words: &["Tavern", "Bar", "Lounge"],
        core: &["dive-bar-vibe", "bar-venue"],
        optional: &[
            "beer-selection",
            "billiards-darts",
            "live-music",
            "karaoke",
            "whiskey-selection",
        ],
        weight: 3,
    },
    Archetype {
        key: "cocktail_bar",
        categories: "Bars, Cocktail Bars, Lounges, Nightlife",
        type_words: &["Lounge", "Bar", "Parlor"],
        core: &["cocktails", "bar-venue"],
        optional: &[
            "trendy-hip",
            "romantic-setting",
            "rooftop-view",
            "live-music",
            "whiskey-selection",
            "wine-list",
        ],
        weight: 3,
    },
    Archetype {
        key: "brewery",
        categories: "Breweries, Beer Bar, Food",
        type_words: &["Brewing Co", "Brewery", "Beer Works", "Taproom"],
        core: &["craft-beer", "bar-venue"],
        optional: &[
            "outdoor-seating",
            "dog-friendly",
            "trivia-night",
            "live-music",
            "burgers",
        ],
        weight: 3,
    },
    Archetype {
        key: "wine_bar",
        categories: "Wine Bars, Bars, Nightlife",
        type_words: &["Wine Bar", "Cellar", "Vines"],
        core: &["wine-list", "bar-venue"],
        optional: &[
            "romantic-setting",
            "cozy-atmosphere",
            "upscale-expensive",
            "cocktails",
        ],
        weight: 2,
    },
    Archetype {
        key: "cafe",
        categories: "Coffee & Tea, Cafes, Breakfast & Brunch",
        type_words: &["Cafe", "Coffee Co", "Coffee House", "Roasters"],
        core: &["coffee-specialty"],
        optional: &[
            "espresso-drinks",
            "pastries",
            "quiet-study-spot",
            "breakfast-brunch",
            "cozy-atmosphere",
            "tea-selection",
            "bagels",
        ],
        weight: 6,
    },
    Archetype {
        key: "bakery",
        categories: "Bakeries, Food, Desserts",
        type_words: &["Bakery", "Bakehouse", "Patisserie"],
        core: &["pastries"],
        optional: &[
            "desserts",
            "coffee-specialty",
            "breakfast-brunch",
            "donuts",
            "gluten-free-options",
        ],
        weight: 3,
    },
    Archetype {
        key: "pizzeria",
        categories: "Pizza, Italian, Restaurants",
        type_words: &["Pizza", "Pizzeria", "Pizza Co"],
        core: &["pizza"],
        optional: &[
            "italian-cuisine",
            "craft-beer",
            "salads",
            "vegetarian-options",
            "gluten-free-options",
        ],
        weight: 5,
    },
    Archetype {
        key: "italian",
        categories: "Italian, Restaurants",
        type_words: &["Trattoria", "Ristorante", "Osteria", "Kitchen"],
        core: &["italian-cuisine"],
        optional: &[
            "wine-list",
            "romantic-setting",
            "pizza",
            "desserts",
            "upscale-expensive",
            "fresh-ingredients",
        ],
        weight: 3,
    },
    Archetype {
        key: "mexican",
        categories: "Mexican, Restaurants",
        type_words: &["Taqueria", "Cantina", "Cocina"],
        core: &["mexican-cuisine", "tacos"],
        optional: &["cocktails", "vegetarian-options", "fast-service", "curry"],
        weight: 4,
    },
    Archetype {
        key: "sushi",
        categories: "Japanese, Sushi Bars, Restaurants",
        type_words: &["Sushi", "Sushi Bar", "Izakaya"],
        core: &["japanese-cuisine", "sushi"],
        optional: &[
            "sushi-variety",
            "ramen",
            "upscale-expensive",
            "fresh-ingredients",
            "romantic-setting",
        ],
        weight: 3,
    },
    Archetype {
        key: "ramen",
        categories: "Japanese, Ramen, Noodles, Restaurants",
        type_words: &["Ramen", "Noodle House", "Ramen Bar"],
        core: &["japanese-cuisine", "ramen"],
        optional: &["fast-service", "late-night-hours", "vegetarian-options"],
        weight: 2,
    },
    Archetype {
        key: "chinese",
        categories: "Chinese, Restaurants",
        type_words: &["Garden", "Palace", "House", "Wok"],
        core: &["chinese-cuisine"],
        optional: &[
            "takeout-delivery",
            "vegetarian-options",
            "large-portions",
            "affordable-prices",
            "tea-selection",
        ],
        weight: 3,
    },
    Archetype {
        key: "thai",
        categories: "Thai, Restaurants",
        type_words: &["Thai Kitchen", "Thai House", "Basil"],
        core: &["thai-cuisine", "curry"],
        optional: &["vegan-friendly", "vegetarian-options", "affordable-prices"],
        weight: 2,
    },
    Archetype {
        key: "indian",
        categories: "Indian, Restaurants",
        type_words: &["Curry House", "Tandoor", "Spice"],
        core: &["indian-cuisine", "curry"],
        optional: &[
            "vegetarian-options",
            "vegan-friendly",
            "large-portions",
            "variety-of-options",
        ],
        weight: 2,
    },
    Archetype {
        key: "vietnamese",
        categories: "Vietnamese, Restaurants, Soup",
        type_words: &["Pho", "Saigon Kitchen", "Banh Mi"],
        core: &["vietnamese-cuisine", "pho"],
        optional: &[
            "sandwiches",
            "fast-service",
            "affordable-prices",
            "fresh-ingredients",
        ],
        weight: 2,
    },
    Archetype {
        key: "korean_bbq",
        categories: "Korean, Barbeque, Restaurants",
        type_words: &["Korean BBQ", "K-Grill", "Seoul Kitchen"],
        core: &["korean-cuisine"],
        optional: &[
            "variety-of-options",
            "large-portions",
            "trendy-hip",
            "late-night-hours",
        ],
        weight: 2,
    },
    Archetype {
        key: "bbq_joint",
        categories: "Barbeque, Smokehouse, Restaurants",
        type_words: &["BBQ", "Smokehouse", "Pit", "Smoke Shack"],
        core: &["bbq-smokehouse", "bbq-ribs"],
        optional: &[
            "craft-beer",
            "large-portions",
            "fried-chicken",
            "popular-busy",
        ],
        weight: 3,
    },
    Archetype {
        key: "burger_joint",
        categories: "Burgers, Fast Food, American (Traditional), Restaurants",
        type_words: &["Burger", "Burger Bar", "Patty Shack"],
        core: &["burgers"],
        optional: &[
            "milkshakes",
            "fast-service",
            "drive-through",
            "fried-chicken",
            "late-night-hours",
        ],
        weight: 4,
    },
    Archetype {
        key: "diner",
        categories: "Diners, Breakfast & Brunch, American (Traditional), Restaurants",
        type_words: &["Diner", "Grill", "Lunch Counter"],
        core: &["american-diner", "breakfast-brunch"],
        optional: &[
            "pancakes-waffles",
            "open-early",
            "large-portions",
            "affordable-prices",
            "milkshakes",
        ],
        weight: 4,
    },
    Archetype {
        key: "steakhouse",
        categories: "Steakhouses, American (New), Restaurants",
        type_words: &["Steakhouse", "Chop House", "Prime"],
        core: &["steakhouse"],
        optional: &[
            "upscale-expensive",
            "wine-list",
            "whiskey-selection",
            "romantic-setting",
            "reservations-recommended",
        ],
        weight: 2,
    },
    Archetype {
        key: "seafood",
        categories: "Seafood, Restaurants",
        type_words: &["Fish House", "Oyster Bar", "Catch"],
        core: &["seafood-restaurant"],
        optional: &[
            "oysters",
            "waterfront-view",
            "upscale-expensive",
            "fresh-ingredients",
            "cocktails",
        ],
        weight: 2,
    },
    Archetype {
        key: "vegan_cafe",
        categories: "Vegan, Vegetarian, Health Markets, Restaurants",
        type_words: &["Greens", "Sprout", "Harvest Kitchen"],
        core: &["vegan-friendly", "healthy-options"],
        optional: &[
            "smoothies-juice",
            "salads",
            "gluten-free-options",
            "fresh-ingredients",
            "coffee-specialty",
        ],
        weight: 2,
    },
    Archetype {
        key: "mediterranean",
        categories: "Mediterranean, Middle Eastern, Greek, Restaurants",
        type_words: &["Kitchen", "Grill", "Taverna", "Shawarma House"],
        core: &["mediterranean-cuisine"],
        optional: &[
            "greek-cuisine",
            "vegetarian-options",
            "healthy-options",
            "fast-service",
            "salads",
        ],
        weight: 2,
    },
    Archetype {
        key: "ice_cream",
        categories: "Ice Cream & Frozen Yogurt, Desserts, Food",
        type_words: &["Ice Cream", "Creamery", "Scoops", "Gelato"],
        core: &["ice-cream", "desserts"],
        optional: &[
            "milkshakes",
            "family-friendly",
            "late-night-hours",
            "donuts",
        ],
        weight: 3,
    },
    Archetype {
        key: "donut_shop",
        categories: "Donuts, Coffee & Tea, Food",
        type_words: &["Donuts", "Doughnut Co", "Glaze"],
        core: &["donuts"],
        optional: &["coffee-specialty", "open-early", "bagels", "drive-through"],
        weight: 2,
    },
    Archetype {
        key: "bubble_tea",
        categories: "Bubble Tea, Coffee & Tea, Food",
        type_words: &["Boba", "Tea House", "Bubble Tea"],
        core: &["bubble-tea"],
        optional: &["tea-selection", "trendy-hip", "smoothies-juice", "desserts"],
        weight: 2,
    },
    Archetype {
        key: "deli",
        categories: "Delis, Sandwiches, Restaurants",
        type_words: &["Deli", "Sandwich Shop", "Subs"],
        core: &["sandwiches"],
        optional: &[
            "bagels",
            "fast-service",
            "salads",
            "affordable-prices",
            "open-early",
        ],
        weight: 3,
    },
    Archetype {
        key: "music_venue",
        categories: "Music Venues, Bars, Nightlife, Arts & Entertainment",
        type_words: &["Hall", "Stage", "Room"],
        core: &["live-music"],
        optional: &[
            "bar-venue",
            "cocktails",
            "dancing-club",
            "historic-charm",
            "craft-beer",
        ],
        weight: 2,
    },
    Archetype {
        key: "auto_repair",
        categories: "Automotive, Auto Repair, Oil Change Stations, Auto Parts & Supplies",
        type_words: &["Auto Care", "Auto Repair", "Garage", "Motors"],
        core: &["auto-repair"],
        optional: &[
            "oil-change",
            "tire-service",
            "auto-parts",
            "friendly-staff",
            "fast-service",
        ],
        weight: 3,
    },
    Archetype {
        key: "tire_shop",
        categories: "Automotive, Tires, Auto Repair",
        type_words: &["Tire", "Tire & Auto", "Wheel Works"],
        core: &["tire-service"],
        optional: &[
            "oil-change",
            "auto-parts",
            "fast-service",
            "affordable-prices",
        ],
        weight: 2,
    },
    Archetype {
        key: "car_wash",
        categories: "Automotive, Car Wash, Auto Detailing",
        type_words: &["Car Wash", "Shine", "Detail Co"],
        core: &["car-wash"],
        optional: &["fast-service", "affordable-prices", "friendly-staff"],
        weight: 1,
    },
    Archetype {
        key: "hair_salon",
        categories: "Beauty & Spas, Hair Salons",
        type_words: &["Salon", "Hair Studio", "Styles"],
        core: &["hair-salon"],
        optional: &["nail-salon", "friendly-staff", "trendy-hip", "clean-space"],
        weight: 3,
    },
    Archetype {
        key: "barber",
        categories: "Beauty & Spas, Barbers",
        type_words: &["Barber Shop", "Barbers", "Cuts"],
        core: &["barber-shop"],
        optional: &["historic-charm", "friendly-staff", "affordable-prices"],
        weight: 2,
    },
    Archetype {
        key: "nail_salon",
        categories: "Beauty & Spas, Nail Salons",
        type_words: &["Nails", "Nail Bar", "Polish"],
        core: &["nail-salon"],
        optional: &["spa-massage", "clean-space", "friendly-staff"],
        weight: 2,
    },
    Archetype {
        key: "spa",
        categories: "Beauty & Spas, Day Spas, Massage",
        type_words: &["Spa", "Wellness", "Retreat"],
        core: &["spa-massage"],
        optional: &[
            "nail-salon",
            "upscale-expensive",
            "clean-space",
            "quiet-study-spot",
        ],
        weight: 2,
    },
    Archetype {
        key: "gym",
        categories: "Fitness & Instruction, Gyms, Active Life",
        type_words: &["Fitness", "Gym", "Strength Co"],
        core: &["gym-fitness"],
        optional: &[
            "yoga-studio",
            "open-early",
            "late-night-hours",
            "clean-space",
            "friendly-staff",
        ],
        weight: 3,
    },
    Archetype {
        key: "yoga",
        categories: "Yoga, Fitness & Instruction, Active Life",
        type_words: &["Yoga", "Flow Studio", "Mat House"],
        core: &["yoga-studio"],
        optional: &[
            "gym-fitness",
            "quiet-study-spot",
            "clean-space",
            "healthy-options",
        ],
        weight: 2,
    },
    Archetype {
        key: "grocery",
        categories: "Grocery, Food, Shopping",
        type_words: &["Market", "Grocery", "Foods"],
        core: &["grocery-store"],
        optional: &[
            "fresh-ingredients",
            "affordable-prices",
            "parking-available",
            "healthy-options",
        ],
        weight: 3,
    },
    Archetype {
        key: "bookstore",
        categories: "Books, Mags, Music & Video, Bookstores, Shopping",
        type_words: &["Books", "Book Shop", "Pages"],
        core: &["bookstore"],
        optional: &[
            "coffee-specialty",
            "quiet-study-spot",
            "cozy-atmosphere",
            "thrift-vintage",
        ],
        weight: 2,
    },
    Archetype {
        key: "florist",
        categories: "Flowers & Gifts, Florists, Shopping",
        type_words: &["Florist", "Blooms", "Petals"],
        core: &["florist"],
        optional: &["friendly-staff", "jewelry-store"],
        weight: 1,
    },
    Archetype {
        key: "pharmacy",
        categories: "Health & Medical, Pharmacy, Drugstores",
        type_words: &["Pharmacy", "Drugs", "Apothecary"],
        core: &["pharmacy"],
        optional: &["fast-service", "friendly-staff", "parking-available"],
        weight: 2,
    },
    Archetype {
        key: "hardware",
        categories: "Hardware Stores, Home & Garden, Shopping",
        type_words: &["Hardware", "Home Supply", "Tool Co"],
        core: &["hardware-store"],
        optional: &["friendly-staff", "parking-available", "variety-of-options"],
        weight: 2,
    },
    Archetype {
        key: "boutique",
        categories: "Women's Clothing, Fashion, Shopping",
        type_words: &["Boutique", "Closet", "Thread Co"],
        core: &["clothing-boutique"],
        optional: &[
            "thrift-vintage",
            "jewelry-store",
            "trendy-hip",
            "friendly-staff",
        ],
        weight: 2,
    },
    Archetype {
        key: "thrift",
        categories: "Thrift Stores, Used, Vintage & Consignment, Shopping",
        type_words: &["Thrift", "Vintage", "Second Story"],
        core: &["thrift-vintage"],
        optional: &["bookstore", "affordable-prices", "variety-of-options"],
        weight: 2,
    },
    Archetype {
        key: "hotel",
        categories: "Hotels, Event Planning & Services, Hotels & Travel",
        type_words: &["Hotel", "Inn", "Suites"],
        core: &["hotel-lodging"],
        optional: &[
            "upscale-expensive",
            "historic-charm",
            "rooftop-view",
            "friendly-staff",
            "private-rooms",
        ],
        weight: 2,
    },
    Archetype {
        key: "museum",
        categories: "Museums, Arts & Entertainment",
        type_words: &["Museum", "Gallery", "Collection"],
        core: &["museum-gallery"],
        optional: &["historic-charm", "family-friendly", "quiet-study-spot"],
        weight: 1,
    },
    Archetype {
        key: "park",
        categories: "Parks, Active Life",
        type_words: &["Park", "Green", "Commons"],
        core: &["park-trails"],
        optional: &[
            "playground",
            "dog-friendly",
            "family-friendly",
            "waterfront-view",
        ],
        weight: 2,
    },
    Archetype {
        key: "movie_theater",
        categories: "Cinema, Arts & Entertainment",
        type_words: &["Cinema", "Theater", "Pictures"],
        core: &["movie-theater"],
        optional: &["family-friendly", "late-night-hours", "arcade-games"],
        weight: 1,
    },
    Archetype {
        key: "urgent_care",
        categories: "Health & Medical, Urgent Care, Walk-in Clinics",
        type_words: &["Urgent Care", "Clinic", "Walk-In Care"],
        core: &["urgent-care"],
        optional: &[
            "fast-service",
            "friendly-staff",
            "clean-space",
            "open-early",
        ],
        weight: 1,
    },
    Archetype {
        key: "dentist",
        categories: "Health & Medical, Dentists, General Dentistry",
        type_words: &["Dental", "Smiles", "Family Dentistry"],
        core: &["dental-care"],
        optional: &["friendly-staff", "clean-space", "family-friendly"],
        weight: 2,
    },
    Archetype {
        key: "tattoo",
        categories: "Beauty & Spas, Tattoo, Piercing",
        type_words: &["Tattoo", "Ink Studio", "Needle & Rose"],
        core: &["tattoo-studio"],
        optional: &["trendy-hip", "clean-space", "friendly-staff"],
        weight: 1,
    },
    Archetype {
        key: "pet_store",
        categories: "Pet Stores, Pet Services, Pets",
        type_words: &["Pet Supply", "Paws", "Pet Co"],
        core: &["pet-supplies"],
        optional: &["dog-friendly", "friendly-staff", "variety-of-options"],
        weight: 1,
    },
    Archetype {
        key: "bowling",
        categories: "Bowling, Active Life, Arts & Entertainment",
        type_words: &["Lanes", "Bowl", "Alley"],
        core: &["bowling"],
        optional: &[
            "arcade-games",
            "bar-venue",
            "family-friendly",
            "late-night-hours",
        ],
        weight: 1,
    },
    Archetype {
        key: "golf",
        categories: "Golf, Active Life",
        type_words: &["Golf Club", "Links", "Fairways"],
        core: &["golf-course"],
        optional: &["outdoor-seating", "upscale-expensive", "bar-venue"],
        weight: 1,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use concepts::Ontology;

    #[test]
    fn catalogue_is_large_and_keys_unique() {
        assert!(ARCHETYPES.len() >= 40);
        let mut keys: Vec<&str> = ARCHETYPES.iter().map(|a| a.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), ARCHETYPES.len());
    }

    #[test]
    fn all_concept_names_resolve() {
        let o = Ontology::builtin();
        for a in ARCHETYPES {
            for name in a.core.iter().chain(a.optional) {
                assert!(
                    o.id(name).is_some(),
                    "unknown concept `{name}` in `{}`",
                    a.key
                );
            }
        }
        for name in GLOBAL_OPTIONAL {
            assert!(o.id(name).is_some(), "unknown global concept `{name}`");
        }
    }

    #[test]
    fn every_archetype_has_core_and_name_words() {
        for a in ARCHETYPES {
            assert!(!a.core.is_empty(), "{} has no core concepts", a.key);
            assert!(!a.type_words.is_empty(), "{} has no type words", a.key);
            assert!(a.weight > 0);
        }
    }

    #[test]
    fn food_archetypes_dominate_by_weight() {
        // Yelp is food-heavy; keep the synthetic city that way.
        let food_keys = [
            "sports_bar",
            "cafe",
            "pizzeria",
            "burger_joint",
            "diner",
            "mexican",
            "bakery",
        ];
        let food_weight: u32 = ARCHETYPES
            .iter()
            .filter(|a| food_keys.contains(&a.key))
            .map(|a| a.weight)
            .sum();
        let total: u32 = ARCHETYPES.iter().map(|a| a.weight).sum();
        assert!(f64::from(food_weight) / f64::from(total) > 0.20);
    }
}
